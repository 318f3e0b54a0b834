// Command tfsnd is the resident team-formation daemon: it builds one
// relation engine over a dataset at startup, then serves team
// formation over HTTP/JSON (internal/serve) with per-request
// deadlines, bounded admission with 429 backpressure, optional request
// coalescing, and graceful drain on SIGINT/SIGTERM.
//
// Endpoints: /form, /formtopk, /healthz, /stats, and — with
// -mutations — POST /mutate for live edge mutations (epoch-versioned;
// each one stales every shard, and stale shards rebuild on first read). See internal/serve for the request
// lifecycle and README.md for a curl walkthrough.
//
// Usage:
//
//	tfsnd -dataset epinions -relation SPO -engine matrix \
//	    -plan-cache 256 -deadline 500ms -queue 128 -addr 127.0.0.1:8080
//	tfsnd -dataset wikipedia -relation SPM -engine sharded \
//	    -max-resident-shards 8 -coalesce-wait 2ms -coalesce-batch 16
//
// On SIGTERM the daemon stops admitting (healthz flips to draining),
// finishes every admitted request within -drain-timeout, closes the
// engine, and exits 0. -addr with port 0 picks a free port and prints
// it, for harnesses.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/serve"
)

// config collects the parsed flags.
type config struct {
	relation      string
	addr          string
	parallel      int
	planCache     int
	relationStats bool
	mutations     bool

	data cliflags.Data
	eng  cliflags.Engine
	srv  cliflags.Serve
}

func validateFlags(cfg config, set map[string]bool) error {
	if err := cfg.eng.Validate(set); err != nil {
		return err
	}
	if err := cfg.srv.Validate(); err != nil {
		return err
	}
	if cfg.planCache < 0 {
		return fmt.Errorf("-plan-cache must be ≥ 0, got %d", cfg.planCache)
	}
	return nil
}

func main() {
	var cfg config
	cfg.data.Register(flag.CommandLine)
	flag.StringVar(&cfg.relation, "relation", "SPO", "compatibility relation: DPE, SPA, SPM, SPO, SBPH, SBP, NNE")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "solver workers for coalesced batches, also used by the -relation-stats scan (0 = GOMAXPROCS); a /formtopk solve runs on one goroutine")
	flag.IntVar(&cfg.planCache, "plan-cache", 256, "cache up to this many compiled task plans (0 = no cache)")
	flag.BoolVar(&cfg.relationStats, "relation-stats", false, "scan the relation at startup and surface Table 2 numbers on /stats (costs a full all-pairs sweep)")
	flag.BoolVar(&cfg.mutations, "mutations", false, "expose POST /mutate for live graph mutations")
	cfg.eng.Register(flag.CommandLine)
	cfg.srv.Register(flag.CommandLine)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(cfg, set); err != nil {
		fmt.Fprintln(os.Stderr, "tfsnd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tfsnd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	d, err := cfg.data.Load()
	if err != nil {
		return err
	}
	kind, err := compat.ParseKind(cfg.relation)
	if err != nil {
		return err
	}
	rel, engine, err := cfg.eng.Build(kind, d.Graph, compat.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("dataset  %s (%d users, %d edges, %d negative)\n",
		d.Name, d.Graph.NumNodes(), d.Graph.NumEdges(), d.Graph.NumNegativeEdges())
	fmt.Printf("relation %v (engine=%s), plan cache %d, queue %d, deadline %v\n",
		kind, engine, cfg.planCache, cfg.srv.Queue, cfg.srv.Deadline)

	var scan *compat.Stats
	if cfg.relationStats {
		scan, err = compat.ComputeStats(rel, compat.StatsOptions{Workers: cfg.parallel})
		if err != nil {
			return fmt.Errorf("startup relation scan: %w", err)
		}
		fmt.Printf("scan     %.4f compatible pairs, avg distance %.2f\n",
			scan.UserFraction(), scan.AvgDistance())
	}

	s := serve.New(rel, d.Assign, serve.Options{
		Workers:         cfg.parallel,
		PlanCache:       cfg.planCache,
		Deadline:        cfg.srv.Deadline,
		Queue:           cfg.srv.Queue,
		CoalesceWait:    cfg.srv.CoalesceWait,
		CoalesceBatch:   cfg.srv.CoalesceBatch,
		Engine:          engine,
		Relation:        scan,
		EnableMutations: cfg.mutations,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()
	// Printed after Listen succeeds, with the resolved port, so
	// harnesses launching with port 0 can parse the address.
	fmt.Printf("serving on %s\n", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("received %v, draining (timeout %v)\n", sig, cfg.srv.DrainTimeout)
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	}

	// The drain contract (serve/doc.go): stop admission and flush
	// windows, shut the HTTP server down (drains in-flight handlers),
	// wait out background batch runners, and only then close the
	// engine. On a blown grace period the engine is NOT closed — a
	// straggler may still be touching it — and the exit is non-zero.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.srv.DrainTimeout)
	defer cancel()
	if err := hsrv.Shutdown(ctx); err != nil {
		s.Wait(ctx) // still cancel the root context
		return fmt.Errorf("drain: in-flight requests did not finish: %w", err)
	}
	if err := s.Wait(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := rel.Close(); err != nil {
		return fmt.Errorf("engine close: %w", err)
	}
	fmt.Println("drained cleanly")
	return nil
}
