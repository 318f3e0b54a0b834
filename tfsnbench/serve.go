package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/serve"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// daemonConfig mirrors the flag set of cmd/tfsnd, with its defaults,
// so a workload names its configuration as tfsnd flags.
type daemonConfig struct {
	dataset   string
	seed      int64
	scale     float64
	relation  string
	parallel  int
	planCache int
	mutations bool

	eng cliflags.Engine
	srv cliflags.Serve
}

func parseDaemon(args []string) (daemonConfig, error) {
	var cfg daemonConfig
	fs := flag.NewFlagSet("tfsnd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&cfg.dataset, "dataset", "", "built-in dataset")
	fs.Int64Var(&cfg.seed, "seed", 1, "dataset seed")
	fs.Float64Var(&cfg.scale, "scale", 0, "built-in dataset scale")
	fs.StringVar(&cfg.relation, "relation", "SPO", "compatibility relation")
	fs.IntVar(&cfg.parallel, "parallel", 0, "solver workers")
	fs.IntVar(&cfg.planCache, "plan-cache", 256, "plan cache capacity")
	fs.BoolVar(&cfg.mutations, "mutations", false, "expose POST /mutate")
	cfg.eng.Register(fs)
	cfg.srv.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("tfsnd flags %q: %w", args, err)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := cfg.eng.Validate(set); err != nil {
		return cfg, err
	}
	if err := cfg.srv.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// servedOpts is the policy of a request that names none: serve's
// parseOpts defaults (LeastCompatibleFirst, MinDistance, diameter).
func servedOpts() team.Options {
	var o team.Options
	o.Skill, _ = cliflags.ParseSkillPolicy("")
	o.User, _ = cliflags.ParseUserPolicy("")
	o.Cost, _ = cliflags.ParseCost("")
	return o
}

// stack is a loaded dataset and its relation engine, built the way
// tfsnd run() builds them.
type stack struct {
	data     *datasets.Dataset
	kind     compat.Kind
	rel      compat.Relation
	engine   string
	loadDur  time.Duration
	buildDur time.Duration
}

func buildStack(cfg daemonConfig) (*stack, error) {
	t0 := time.Now()
	d, err := datasets.Load(cfg.dataset, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	kind, err := compat.ParseKind(cfg.relation)
	if err != nil {
		return nil, err
	}
	rel, engine, err := cfg.eng.Build(kind, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	if err != nil {
		return nil, err
	}
	st := &stack{data: d, kind: kind, rel: rel, engine: engine, loadDur: t1.Sub(t0), buildDur: time.Since(t1)}
	if _, ok := rel.(compat.MutableRelation); cfg.mutations && !ok {
		st.close()
		return nil, fmt.Errorf("engine %s does not support mutations", engine)
	}
	return st, nil
}

func (st *stack) close() {
	if c, ok := st.rel.(interface{ Close() error }); ok {
		c.Close()
	}
}

// daemon is one in-process tfsnd: a stack behind serve.New on a
// loopback listener.
type daemon struct {
	*stack
	srv   *serve.Server
	hsrv  *http.Server
	base  string
	drain time.Duration // tfsnd's -drain-timeout
	timer *handlerTimer // traced runs only
	done  chan error
}

func startDaemon(cfg daemonConfig, traced bool) (*daemon, error) {
	st, err := buildStack(cfg)
	if err != nil {
		return nil, err
	}
	srv := serve.New(st.rel, st.data.Assign, serve.Options{
		Workers:         cfg.parallel,
		PlanCache:       cfg.planCache,
		Deadline:        cfg.srv.Deadline,
		Queue:           cfg.srv.Queue,
		CoalesceWait:    cfg.srv.CoalesceWait,
		CoalesceBatch:   cfg.srv.CoalesceBatch,
		Engine:          st.engine,
		EnableMutations: cfg.mutations,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	d := &daemon{stack: st, srv: srv, base: "http://" + ln.Addr().String(), drain: cfg.srv.DrainTimeout, done: make(chan error, 1)}
	h := srv.Handler()
	if traced {
		d.timer = &handlerTimer{h: h, took: map[int64]time.Duration{}}
		h = d.timer
	}
	d.hsrv = &http.Server{Handler: h}
	go func() { d.done <- d.hsrv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon in tfsnd's order: stop admission, shut the
// HTTP server down, wait for the serving layer, close the engine. As in
// tfsnd, the engine stays open when the drain does not finish within
// the grace period: a straggling handler may still be reading it, and
// closing a spilling engine unmaps the rows under it.
func (d *daemon) stop() error {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := d.hsrv.Shutdown(ctx); err != nil {
		d.srv.Wait(ctx) // still cancel the root context
		return fmt.Errorf("drain: in-flight requests did not finish: %w", err)
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := d.srv.Wait(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	d.close()
	return nil
}

// handlerTimer wraps Handler() in traced runs and records the time
// each request spent inside ServeHTTP, keyed by its id header.
type handlerTimer struct {
	h    http.Handler
	mu   sync.Mutex
	took map[int64]time.Duration
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	if id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64); err == nil {
		t.mu.Lock()
		t.took[id] = d
		t.mu.Unlock()
	}
}

// statsDoc is the part of /stats the benchmark reads.
type statsDoc struct {
	Kernels   string                `json:"kernels"`
	Server    serve.ServerStats     `json:"server"`
	PlanCache team.PlanCacheStats   `json:"plan_cache"`
	Mutation  *compat.MutationStats `json:"mutation"`
	Sharded   *compat.EngineStats   `json:"sharded"`
}

// answer is the JSON of a /form or /formtopk response.
type answer struct {
	teamAnswer
	Teams []teamAnswer `json:"teams"`
}

type teamAnswer struct {
	Found      bool    `json:"found"`
	Members    []int32 `json:"members"`
	Cost       int32   `json:"cost"`
	Infeasible bool    `json:"infeasible"`
}

func (a teamAnswer) equal(b teamAnswer) bool {
	return a.Found == b.Found && a.Cost == b.Cost && a.Infeasible == b.Infeasible && slices.Equal(a.Members, b.Members)
}

func (a answer) equal(b answer) bool {
	return a.teamAnswer.equal(b.teamAnswer) && slices.EqualFunc(a.Teams, b.Teams, teamAnswer.equal)
}

func teamOf(tm *team.Team) teamAnswer {
	a := teamAnswer{Found: true, Cost: tm.Cost}
	for _, u := range tm.Members {
		a.Members = append(a.Members, int32(u))
	}
	return a
}

// expect solves e as a kind request directly on s and renders the
// answer the server should give.
func expect(ctx context.Context, s *team.Solver, e poolEntry, kind reqKind) (answer, error) {
	opts := servedOpts()
	opts.Constraints = e.cons
	var a answer
	var err error
	switch kind {
	case kindForm:
		var tm team.Team
		if err = s.FormIntoContext(ctx, e.task, opts, &tm); err == nil {
			a.teamAnswer = teamOf(&tm)
		}
	default:
		var teams []*team.Team
		if kind == kindTopKDiverse {
			teams, err = s.FormTopKDiverseContext(ctx, e.task, opts, topK, diverseLambda)
		} else {
			teams, err = s.FormTopKContext(ctx, e.task, opts, topK)
		}
		if err == nil {
			a.Found = true
			for _, tm := range teams {
				a.Teams = append(a.Teams, teamOf(tm))
			}
		}
	}
	switch {
	case errors.Is(err, team.ErrInfeasible):
		a.Infeasible, err = true, nil
	case errors.Is(err, team.ErrNoTeam):
		err = nil
	}
	return a, err
}

// serveRun is the outcome of one serving run.
type serveRun struct {
	w      *workload
	cfg    daemonConfig
	pool   []poolEntry
	engine string
	kind   compat.Kind

	setup, setupCPU, load, build dist // seconds, one per set-up

	samples       []sample      // open loop and flips, in send order
	openCPU       time.Duration // process CPU time of the open loop
	closedCPU     time.Duration // process CPU time of the closed loop
	closedDur     time.Duration // wall-clock length of the closed loop
	closed        closedCounts
	flips         []sgraph.Edge
	warmFlips     int  // applied before the measured phases
	flipsSent     int  // applied in the measured phases
	dirty         dist // shards each applied flip dirtied
	rssMB         float64
	rt            runtimeDelta
	stealPct      float64 // host CPU stolen by other guests while measuring
	before, after statsDoc

	failed     int // non-2xx and transport errors
	mismatches int // answers that disagree with the oracle or each other
	checked    int // answers compared against the oracle
	notes      []string

	// distinct /form answers of the open loop, for solved_frac and
	// mean_cost.
	distinct, solved int
	costSum          int64

	trace *serveTrace // traced runs only
}

// runServe runs a serving workload: set-ups, warm-up, the open and
// closed phases, then the correctness checks.
func runServe(w *workload, seed int64, seconds int, traced bool, setups int) (*serveRun, error) {
	cfg, err := parseDaemon(w.tfsndArgs)
	if err != nil {
		return nil, err
	}
	// The inputs: drawn from the seed over the dataset every set-up
	// rebuilds identically.
	d0, err := datasets.Load(cfg.dataset, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	pool, err := makePool(seed, d0.Assign, poolSize)
	if err != nil {
		return nil, err
	}
	measure := time.Duration(seconds) * time.Second
	openDur := time.Duration(float64(measure) * w.openShare)
	flipAt := flipTimes(w, openDur)
	t := &target{pool: pool}
	if len(flipAt) > 0 {
		// Edge 0 is the warm-up flip; the measured flips toggle 1...
		t.flips = flipEdges(seed, d0.Graph, 1+len(flipAt))
	}
	m := newMix(seed)

	run := &serveRun{w: w, cfg: cfg, pool: pool, flips: t.flips}
	var dm *daemon
	for i := 0; i < setups; i++ {
		c0, t0 := cpuTime(), time.Now()
		if dm, err = startDaemon(cfg, traced); err != nil {
			return nil, err
		}
		t.base = dm.base
		probe := newLoadgen(t, false)
		smp := probe.senders[0].do(request{kind: kindForm}, 0, time.Now(), phaseWarm)
		probe.close()
		if !smp.ok() {
			dm.stop()
			return nil, fmt.Errorf("set-up probe /form answered status %d", smp.status)
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		run.setupCPU = append(run.setupCPU, (cpuTime() - c0).Seconds())
		run.load = append(run.load, dm.loadDur.Seconds())
		run.build = append(run.build, dm.buildDur.Seconds())
		if i < setups-1 {
			if err := dm.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer dm.stop()
	run.engine, run.kind = dm.engine, dm.kind

	lg := newLoadgen(t, traced)
	defer lg.close()
	// Warm-up: fill the plan cache and the connections from a stream
	// offset the measured phases never use. A mutating engine first
	// takes one flip and has the warm-up to rebuild after it, so the
	// measured phases start from the steady state of an engine that has
	// been written to (rebuilt shards spill by write-back instead of
	// dropping their pristine mapped views).
	warm := time.Second
	if len(t.flips) > 0 {
		smp := lg.senders[0].do(request{kind: kindMutate, entry: 0}, -1, time.Now(), phaseWarm)
		if !smp.ok() {
			return nil, fmt.Errorf("warm-up flip answered status %d", smp.status)
		}
		run.warmFlips = 1
		warm = 3 * time.Second
	}
	lg.runClosed(m, 1<<40, warm, phaseWarm)
	if err := lg.getJSON(dm.base+"/stats", &run.before); err != nil {
		return nil, err
	}

	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	rt0 := readRuntime()
	steal := startSteal()
	c0 := cpuTime()
	lg.runOpen(openSchedule(m, w.openRate, openDur, flipAt, run.warmFlips))
	c1 := cpuTime()
	run.closedDur = lg.runClosed(m, 0, measure-openDur, phaseClosed)
	run.openCPU, run.closedCPU = c1-c0, cpuTime()-c1
	run.closed = lg.closedTotals()
	run.rt = diffRuntime(rt0, readRuntime())
	run.stealPct = steal.pct()
	run.rssMB = rss.stopMB()
	run.samples = lg.merged()
	if err := lg.getJSON(dm.base+"/stats", &run.after); err != nil {
		return nil, err
	}

	if err := run.check(lg, dm, seed); err != nil {
		return nil, err
	}
	if traced {
		if run.trace, err = traceServe(run, dm, seed); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// check counts failures, verifies the answers and tallies the open
// loop's distinct /form answers.
func (run *serveRun) check(lg *loadgen, dm *daemon, seed int64) error {
	first, disagree := lg.firstBodies()
	mutating := run.cfg.mutations
	if !mutating {
		run.mismatches += disagree
	}
	hashes := map[bodyKey]uint64{}
	for k, b := range first {
		hashes[k] = fnvHash(b)
	}
	for _, s := range lg.senders {
		for _, b := range s.mutateBodies {
			var res struct {
				DirtyShards int `json:"dirty_shards"`
			}
			if err := json.Unmarshal(b, &res); err != nil {
				run.mismatches++
				continue
			}
			run.dirty = append(run.dirty, float64(res.DirtyShards))
		}
	}
	formSeen := map[int32]bool{}
	for _, s := range run.samples {
		if !s.ok() {
			run.failed++
			continue
		}
		if s.kind == kindMutate {
			run.flipsSent++
			continue
		}
		// On an immutable engine every answer to one request is the
		// same bytes; under mutations answers legitimately change.
		if !mutating && s.hash != hashes[bodyKey{s.kind, s.entry}] {
			run.mismatches++
		}
		if s.phase == phaseOpen && s.kind == kindForm {
			formSeen[s.entry] = true
		}
	}
	run.failed += run.closed.failed
	run.mismatches += run.closed.mismatched
	for e := range formSeen {
		var a answer
		if err := json.Unmarshal(first[bodyKey{kindForm, e}], &a); err != nil {
			run.mismatches++
			continue
		}
		run.distinct++
		if a.Found {
			run.solved++
			run.costSum += int64(a.Cost)
		}
	}
	if mutating {
		return run.checkMutated(lg, dm, seed)
	}
	return run.checkOracle(first)
}

// checkOracle compares every distinct answer with a direct solve on an
// independently built engine.
func (run *serveRun) checkOracle(first map[bodyKey][]byte) error {
	st, err := buildStack(run.cfg)
	if err != nil {
		return fmt.Errorf("oracle engine: %w", err)
	}
	defer st.close()
	return run.compare(st.rel, st.data.Assign, first)
}

// compare checks the given served bodies against direct solves over
// rel.
func (run *serveRun) compare(rel compat.Relation, assign *skills.Assignment, bodies map[bodyKey][]byte) error {
	oracle := team.NewSolver(rel, assign, team.SolverOptions{Workers: 1})
	for k, b := range bodies {
		want, err := expect(context.Background(), oracle, run.pool[k.entry], k.kind)
		if err != nil {
			return fmt.Errorf("oracle solve: %w", err)
		}
		var got answer
		run.checked++
		if err := json.Unmarshal(b, &got); err != nil || !got.equal(want) {
			run.mismatches++
			if len(run.notes) < 3 {
				run.notes = append(run.notes, fmt.Sprintf("%s entry %d: served %s, oracle %+v", k.kind, k.entry, b, want))
			}
		}
	}
	return nil
}

// checkMutated is the end-to-end mutation oracle: once the load has
// quiesced, the epoch must equal the flips applied, and sampled /form
// answers must match a fresh engine built over the mutated graph.
func (run *serveRun) checkMutated(lg *loadgen, dm *daemon, seed int64) error {
	var st statsDoc
	if err := lg.getJSON(dm.base+"/stats", &st); err != nil {
		return err
	}
	applied := run.warmFlips + run.flipsSent
	if st.Mutation == nil || st.Mutation.Epoch != uint64(applied) {
		run.mismatches++
		run.notes = append(run.notes, fmt.Sprintf("epoch %+v after %d flips", st.Mutation, applied))
	}
	fresh := run.cfg
	fresh.eng = cliflags.Engine{Name: "matrix"}
	rel, _, err := fresh.eng.Build(dm.kind, dm.rel.Graph(), compat.Options{})
	if err != nil {
		return fmt.Errorf("oracle engine: %w", err)
	}
	bodies := map[bodyKey][]byte{}
	s := lg.senders[0]
	for i := 0; i < 200; i++ {
		e := int32(draw(seed, streamSample, uint64(i)) * float64(len(run.pool)))
		k := bodyKey{kindForm, e}
		if bodies[k] != nil {
			continue
		}
		smp := s.do(request{kind: kindForm, entry: e}, -1, time.Now(), phaseWarm)
		if !smp.ok() {
			run.failed++
			continue
		}
		bodies[k] = append([]byte(nil), s.buf.Bytes()...)
	}
	return run.compare(rel, dm.data.Assign, bodies)
}
