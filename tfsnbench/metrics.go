package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/compat"
)

// metric declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (metrics_test.go keeps the two
// in step); moves records, for a per-layer metric, which end-to-end
// metric it should move and on which workload — elsewhere the
// prediction is no change.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves              string  // per-layer only
}

// endToEnd are the user-visible metrics every untraced run prints.
// p50_ms and aux_p50_ms name one quantity per workload (see
// README.md):
//
//	            serve-read, serve-mutate   batch-unique
//	p50_ms      /form latency, open loop   CPU time of one FormBatch chunk
//	aux_p50_ms  /formtopk latency          CPU time of the chunk at Workers=1
//
// setup_s and the batch figures are process CPU time (user+sys), which
// time the host gives other guests does not inflate: on a shared 2-core
// host that moved wall-clock batch medians by +74% between two sets of
// runs an hour apart. Each run's report also prints their wall-clock
// figures, the tails and throughput, which are reported but not gated.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "aux_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "solved_frac", unit: "ratio", better: "higher", bound: 0.05},
	{name: "mean_cost", unit: "diameter", better: "lower", bound: 0.05},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (no mutations on serve-read, no HTTP on
// batch-unique, no spill on the matrix engine).
var perLayer = []metric{
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", moves: "validity check: sends ran on schedule"},
	{name: "loadgen.open.sent", unit: "count", better: "higher", moves: "base of the open-loop latencies"},
	{name: "loadgen.open.ok", unit: "count", better: "higher", moves: "failed"},
	{name: "loadgen.open.failed", unit: "count", better: "lower", moves: "failed"},
	{name: "loadgen.closed.sent", unit: "count", better: "higher", moves: "serve_rps and batch_tasks_per_s (report)"},
	{name: "loadgen.closed.ok", unit: "count", better: "higher", moves: "serve_rps and batch_tasks_per_s (report)"},
	{name: "loadgen.closed.failed", unit: "count", better: "lower", moves: "failed"},
	{name: "serve.handler_us_p50", unit: "us", better: "lower", moves: "p50_ms and serve_rps on serve-read"},
	{name: "serve.handler_us_p99", unit: "us", better: "lower", moves: "form_p99_ms (report) on serve-read and serve-mutate"},
	{name: "serve.transport_us_p50", unit: "us", better: "lower", moves: "p50_ms and serve_rps on serve-read"},
	{name: "serve.overhead_us_p50", unit: "us", better: "lower", moves: "p50_ms on serve-read"},
	{name: "serve.layer_gap_us_p50", unit: "us", better: "lower", moves: "none: round-trip p50 minus transport+overhead+solve p50"},
	{name: "serve.admitted", unit: "count", better: "higher", moves: "failed"},
	{name: "serve.shed", unit: "count", better: "lower", moves: "failed"},
	{name: "serve.deadline_exceeded", unit: "count", better: "lower", moves: "failed"},
	{name: "serve.infeasible", unit: "count", better: "lower", moves: "solved_frac"},
	{name: "team.plan_compile_us", unit: "us", better: "lower", moves: "p50_ms on batch-unique, form_p99_ms (report) on serve-mutate"},
	{name: "team.solve_us", unit: "us", better: "lower", moves: "p50_ms on batch-unique, part of p50_ms on serve-read"},
	{name: "team.topk_us", unit: "us", better: "lower", moves: "aux_p50_ms on serve-read"},
	{name: "team.plan_cache_hit_ratio", unit: "ratio", better: "higher", moves: "p50_ms on serve-read"},
	{name: "team.plan_cache_lookups", unit: "count", better: "higher", moves: "base of team.plan_cache_hit_ratio"},
	{name: "team.plan_cache_evictions", unit: "count", better: "lower", moves: "p50_ms on serve-read"},
	{name: "team.plan_cache_negative_hits", unit: "count", better: "higher", moves: "p50_ms on serve-read"},
	{name: "team.seed_success_ratio", unit: "ratio", better: "higher", moves: "p50_ms on batch-unique"},
	{name: "team.seeds_tried_per_solve", unit: "count", better: "lower", moves: "p50_ms on batch-unique"},
	{name: "team.allocs_per_solve", unit: "count", better: "lower", moves: "form_p99_ms (report) via GC"},
	{name: "team.batch_speedup_procs", unit: "ratio", better: "higher", moves: "p50_ms on batch-unique (GOMAXPROCS=N vs 1)"},
	{name: "compat.build_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
	{name: "compat.row_resolve_ns", unit: "ns", better: "lower", moves: "team.solve_us"},
	{name: "compat.cold_row_resolve_us", unit: "us", better: "lower", moves: "p50_ms on serve-mutate"},
	{name: "compat.spill_loads_per_req", unit: "count", better: "lower", moves: "p50_ms on serve-mutate"},
	{name: "compat.mutate_us", unit: "us", better: "lower", moves: "mutate_p50_ms on serve-mutate (report)"},
	{name: "compat.dirty_shards_per_mutation", unit: "count", better: "lower", moves: "form_p99_ms (report) on serve-mutate"},
	{name: "compat.shard_count", unit: "count", better: "lower", moves: "base of compat.dirty_shards_per_mutation"},
	{name: "compat.rebuild_ms", unit: "ms", better: "lower", moves: "form_p99_ms (report) on serve-mutate"},
	{name: "compat.shard_rebuilds", unit: "count", better: "lower", moves: "form_p99_ms (report) on serve-mutate"},
	{name: "signedbfs.row_us", unit: "us", better: "lower", moves: "setup_s, form_p99_ms (report) on serve-mutate"},
	{name: "datasets.load_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "form_p99_ms (report)"},
	{name: "go.gc_pause_p99_us", unit: "us", better: "lower", moves: "form_p99_ms (report)"},
	{name: "go.gc_pause_max_us", unit: "us", better: "lower", moves: "form_p99_ms (report)"},
	{name: "go.alloc_bytes_per_req", unit: "B", better: "lower", moves: "form_p99_ms (report)"},
}

// values maps metric names to measured values.
type values map[string]float64

// line is one row of the human-readable report: a metric under the
// name the workload gives it, with its sample count when it has one.
type line struct {
	name  string
	value float64
	unit  string
	n     int
}

func (l line) String() string {
	s := fmt.Sprintf("  %-34s %14.6g %s", l.name, l.value, l.unit)
	if l.n > 0 {
		s += fmt.Sprintf("  (n=%d)", l.n)
	}
	return s
}

// outcome is what a run reports, whichever workload produced it.
type outcome struct {
	record    map[string]any
	e2e       values
	report    []line
	attempted int
	failed    int
	correct   bool
	notes     []string
	layers    values
	layerText []string
}

// provenance stamps a record: commit, GOMAXPROCS, nproc, kernels
// variant, engine, relation, dataset, scale, seed and Go version, and
// the host CPU share other guests stole while the run measured.
func provenance(w *workload, cfg daemonConfig, engine string, kind compat.Kind, seed int64, stealPct float64) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return map[string]any{
		"workload":   w.name,
		"commit":     commit,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"kernels":    compat.KernelsVariant(),
		"engine":     engine,
		"relation":   kind.String(),
		"dataset":    cfg.dataset,
		"scale":      cfg.scale,
		"seed":       seed,
		"go":         runtime.Version(),
		"tfsnd_args": strings.Join(w.tfsndArgs, " "),
		"steal_pct":  stealPct,
	}
}

// jsonResult is the last line of every run.
type jsonResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line from vals, which must carry every
// metric of defs and nothing else.
func render(o *outcome, defs []metric, vals values) ([]byte, error) {
	res := jsonResult{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(vals), len(defs))
	}
	return json.Marshal(res)
}

// printRecord writes the provenance record as one JSON line.
func printRecord(rec map[string]any, trace int) {
	rec["trace"] = trace
	b, _ := json.Marshal(rec)
	fmt.Println("record", string(b))
}

// printValues writes vals in the order of defs, each with the
// end-to-end metric it should move.
func printValues(title string, defs []metric, vals values) {
	fmt.Println(title)
	for _, d := range defs {
		fmt.Printf("%s  → %s\n", line{name: d.name, value: vals[d.name], unit: d.unit}, d.moves)
	}
}

// ratio formats a/b for the overhead table.
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return strconv.FormatFloat(a/b, 'f', 3, 64)
}
