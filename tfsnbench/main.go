// Command tfsnbench is the repository's benchmark: one command that
// runs a named workload against the real layers in process — datasets,
// a compat engine, the team solver and, for the serving workloads, the
// serve HTTP layer over a loopback listener configured as cmd/tfsnd
// configures it — checks every answer against an independently built
// oracle, and prints the end-to-end metrics by name and unit.
//
// Usage, from the repository root (run.sh builds from source first):
//
//	bash tfsnbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// untraced, then again with the calls into each layer timed from
// outside, and prints the per-layer metrics, the serve-read layer
// split with its gap, and the tracing overhead. Every run prints a
// provenance record and a readable report before its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads and the metric table are documented in README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// setups is how many times an untraced run sets the system up;
// setup_s is their median.
const setups = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tfsnbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tfsnbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-read, batch-unique or serve-mutate")
	seed := fs.Int64("seed", 1, "workload seed: drives the generated load")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("want --seconds of at least 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	base, err := measure(w, *seed, *seconds, false, setups)
	if err != nil {
		return err
	}
	printRecord(base.record, *trace)
	fmt.Println("end-to-end:")
	for _, l := range base.report {
		fmt.Println(l)
	}
	for _, n := range base.notes {
		fmt.Println("  note:", n)
	}
	if *trace != 1 {
		out, err := render(base, endToEnd, base.e2e)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}

	traced, err := measure(w, *seed, *seconds, true, 1)
	if err != nil {
		return err
	}
	fmt.Println("tracing overhead (traced / untraced, end-to-end):")
	for _, m := range endToEnd {
		if m.name == "setup_s" {
			continue // the traced run sets up once, untimed against the median
		}
		fmt.Printf("  %-20s untraced %12.6g  traced %12.6g  ratio %s\n", m.name, base.e2e[m.name], traced.e2e[m.name], ratio(traced.e2e[m.name], base.e2e[m.name]))
	}
	for _, t := range traced.layerText {
		fmt.Println(t)
	}
	printValues("per-layer:", perLayer, traced.layers)
	traced.correct = traced.correct && base.correct
	traced.attempted += base.attempted
	traced.failed += base.failed
	out, err := render(traced, perLayer, traced.layers)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure runs w once and summarises it.
func measure(w *workload, seed int64, seconds int, traced bool, setups int) (*outcome, error) {
	if w.batch {
		r, err := runBatch(w, seed, seconds, traced, setups)
		if err != nil {
			return nil, err
		}
		return r.outcome(seed)
	}
	r, err := runServe(w, seed, seconds, traced, setups)
	if err != nil {
		return nil, err
	}
	return r.outcome(seed)
}

// outcome summarises a serving run.
func (run *serveRun) outcome(seed int64) (*outcome, error) {
	o := &outcome{record: provenance(run.w, run.cfg, run.engine, run.kind, seed, run.stealPct)}
	var form, topk, mutate dist
	for _, s := range run.samples {
		switch {
		case !s.ok():
		case s.kind == kindMutate:
			mutate = append(mutate, durMS(s.lat))
		case s.kind == kindForm:
			form = append(form, durMS(s.lat))
		default:
			topk = append(topk, durMS(s.lat))
		}
	}
	if len(form) == 0 || len(topk) == 0 || run.solved == 0 || run.closed.sent == 0 {
		return nil, errors.New("no /form or /formtopk sample, no closed-loop request, or no /form request found a team")
	}
	o.attempted = len(run.samples) + run.closed.sent
	o.failed = run.failed + run.mismatches
	o.correct = o.failed == 0
	o.notes = run.notes
	failedFrac := float64(o.failed) / float64(o.attempted)
	o.e2e = values{
		"setup_s":     run.setupCPU.median(),
		"rss_peak_mb": run.rssMB,
		"p50_ms":      form.median(),
		"aux_p50_ms":  topk.median(),
		"solved_frac": float64(run.solved) / float64(run.distinct),
		"mean_cost":   float64(run.costSum) / float64(run.solved),
	}
	closedOK := run.closed.sent - run.closed.failed
	o.report = []line{
		{"setup_s (CPU, median)", o.e2e["setup_s"], "s", len(run.setupCPU)},
		{"setup_wall_s (median)", run.setup.median(), "s", len(run.setup)},
		{"rss_peak_mb", run.rssMB, "MB", 0},
		{"form_p50_ms", o.e2e["p50_ms"], "ms", len(form)},
		tailLine("form_p99_ms", form, 0.99),
		{"topk_p50_ms", o.e2e["aux_p50_ms"], "ms", len(topk)},
		tailLine("topk_p99_ms", topk, 0.99),
	}
	if run.cfg.mutations {
		o.report = append(o.report, line{"mutate_p50_ms", mutate.median(), "ms", len(mutate)}, tailLine("mutate_p90_ms", mutate, 0.9))
	}
	o.report = append(o.report,
		line{"serve_rps (closed loop)", float64(closedOK) / run.closedDur.Seconds(), "req/s", run.closed.sent},
		line{"cpu_us_per_req (closed loop)", durUS(run.closedCPU) / float64(run.closed.sent), "us", run.closed.sent},
		line{"cpu_us_per_req (open loop)", durUS(run.openCPU) / float64(len(run.samples)), "us", len(run.samples)},
		line{"solved_frac", o.e2e["solved_frac"], "ratio", run.distinct},
		line{"mean_cost", o.e2e["mean_cost"], "diameter", run.solved},
		line{"failed_frac", failedFrac, "ratio", o.attempted},
		line{"oracle_checked", float64(run.checked), "answers", 0},
	)
	if run.trace != nil {
		o.layers, o.layerText = run.trace.layers(run)
	}
	return o, nil
}

// tailLine reports the q-quantile of d, or says it has too few samples
// beyond it to be reported.
func tailLine(name string, d dist, q float64) line {
	if v, ok := d.quantile(q); ok {
		return line{name, v, "ms", len(d)}
	}
	return line{name + " (fewer than 10 samples beyond it, not reported)", 0, "", len(d)}
}

// outcome summarises a batch run.
func (run *batchRun) outcome(seed int64) (*outcome, error) {
	o := &outcome{record: provenance(run.w, run.cfg, run.engine, run.kind, seed, run.stealPct)}
	if len(run.chunkCPU) == 0 || run.solved == 0 || len(run.refCPU) == 0 {
		return nil, errors.New("no chunk was formed, no task found a team, or no reference chunk ran")
	}
	o.attempted = run.tasks + run.failed
	o.failed = run.failed + run.mismatches
	o.correct = o.failed == 0
	o.notes = run.notes
	failedFrac := float64(o.failed) / float64(o.attempted)
	o.e2e = values{
		"setup_s":     run.setupCPU.median(),
		"rss_peak_mb": run.rssMB,
		"p50_ms":      run.chunkCPU.median(),
		"aux_p50_ms":  run.refCPU.median(),
		"solved_frac": float64(run.solved) / float64(run.distinct),
		"mean_cost":   float64(run.costSum) / float64(run.solved),
	}
	o.report = []line{
		{"setup_s (CPU, median)", o.e2e["setup_s"], "s", len(run.setupCPU)},
		{"setup_wall_s (median)", run.setup.median(), "s", len(run.setup)},
		{"rss_peak_mb", run.rssMB, "MB", 0},
		{"batch_tasks_per_s", float64(run.tasks) / run.busy.Seconds(), "tasks/s", run.tasks},
		{fmt.Sprintf("chunk_cpu_p50_ms (%d tasks)", batchChunk), o.e2e["p50_ms"], "ms", len(run.chunkCPU)},
		{"chunk_workers1_cpu_p50_ms", o.e2e["aux_p50_ms"], "ms", len(run.refCPU)},
		{"chunk_wall_p50_ms", run.chunkMS.median(), "ms", len(run.chunkMS)},
		tailLine("chunk_wall_p99_ms", run.chunkMS, 0.99),
		{"chunk_workers1_wall_p50_ms", run.refMS.median(), "ms", len(run.refMS)},
		{"solved_frac", o.e2e["solved_frac"], "ratio", run.distinct},
		{"mean_cost", o.e2e["mean_cost"], "diameter", run.solved},
		{"failed_frac", failedFrac, "ratio", o.attempted},
		{"reference_checked", float64(run.checked), "tasks", 0},
	}
	if run.trace != nil {
		o.layers, o.layerText = run.trace.layers(run)
	}
	return o, nil
}
