package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
	"repro/internal/skills"
	"repro/internal/team"
)

// The traced run times the calls into each layer's public functions
// from outside: the serve handler through a wrapping http.Handler, and
// the team, compat and signedbfs layers by replaying the workload's
// own inputs into them once the load is over.

// sink keeps timed calls from being optimised away.
var sink int

// solveTrace is the team layer replayed: plan compiles on cache
// misses, solves, top-k calls and the seed counters.
type solveTrace struct {
	compile, solve, topk dist // µs
	seedsTried, seedsOK  int64
	solves               int64
	allocsPerSolve       float64
}

// tally adds a solved team's seed counters.
func (st *solveTrace) tally(tm *team.Team) {
	st.solves++
	st.seedsTried += int64(tm.SeedsTried)
	st.seedsOK += int64(tm.SeedsSucceeded)
}

// countAllocs re-solves plans and reports heap allocations per solve.
func (st *solveTrace) countAllocs(plans []*team.TaskPlan) {
	if len(plans) == 0 {
		return
	}
	var tm team.Team
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range plans {
		p.FormIntoContext(context.Background(), &tm)
	}
	runtime.ReadMemStats(&m1)
	st.allocsPerSolve = float64(m1.Mallocs-m0.Mallocs) / float64(len(plans))
}

// engineTrace is the compat and signedbfs layers on the workload's
// engine.
type engineTrace struct {
	rowNS       float64 // RowWords + DistanceRow, resident
	coldUS      float64 // the same on a spilled shard (0 without spill)
	shards      int
	bfsUS       dist
	speedup     float64 // FormBatch at GOMAXPROCS=N over GOMAXPROCS=1
	speedupN    int     // tasks in the speed-up batch
	speedupProc int
}

func traceEngine(rel compat.Relation, assign *skills.Assignment, specs []team.TaskSpec, seed int64) (engineTrace, error) {
	et := engineTrace{shards: 1, speedupN: len(specs), speedupProc: runtime.GOMAXPROCS(0)}
	if p, ok := rel.(compat.PackedRelation); ok {
		et.rowNS, et.coldUS, et.shards = rowResolve(p, seed)
	}
	et.bfsUS = bfsRows(rel.Graph(), seed)
	var err error
	et.speedup, err = batchSpeedup(rel, assign, specs)
	return et, err
}

// rowResolve times RowWords + DistanceRow on the rows of one resident
// shard, and — when the engine spills — on rows of shards visited
// round-robin, which the residency bound keeps cold.
func rowResolve(p compat.PackedRelation, seed int64) (residentNS, coldUS float64, shards int) {
	n, rows, spills := p.NumNodes(), 64, false
	shards = 1
	if sm, ok := p.(*compat.ShardedMatrix); ok {
		rows, shards = sm.ShardRows(), sm.NumShards()
		ls := sm.LiveStats()
		spills = ls.MaxResidentShards > 0 && ls.MaxResidentShards < shards
	}
	if rows > n {
		rows = n
	}
	touch := func(u int) int {
		return len(p.RowWords(sgraph.NodeID(u))) + p.DistanceRow(sgraph.NodeID(u)).Len()
	}
	start := int(draw(seed, streamSample, 1<<32)*float64(n/rows)) * rows
	end := min(start+rows, n)
	for u := start; u < end; u++ {
		sink += touch(u)
	}
	const reps = 1 << 17
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		sink += touch(start + i%(end-start))
	}
	residentNS = float64(time.Since(t0).Nanoseconds()) / reps
	if !spills {
		return residentNS, 0, shards
	}
	var cold dist
	for i := 0; i < 4*shards; i++ {
		t := time.Now()
		sink += touch((i % shards) * rows)
		cold = append(cold, durUS(time.Since(t)))
	}
	return residentNS, cold.median(), shards
}

// bfsRows times the warm per-source signed BFS the SP relations' fill
// runs, from 256 seeded sources.
func bfsRows(g *sgraph.Graph, seed int64) dist {
	n := g.NumNodes()
	sc := signedbfs.NewScratch(n)
	var res signedbfs.Result
	signedbfs.CountPathsInto(g, 0, &res, sc)
	var out dist
	for i := 0; i < 256; i++ {
		u := sgraph.NodeID(draw(seed, streamSample, 1<<33+uint64(i)) * float64(n))
		t0 := time.Now()
		signedbfs.CountPathsInto(g, u, &res, sc)
		out = append(out, durUS(time.Since(t0)))
	}
	return out
}

// batchSpeedup is FormBatch throughput at GOMAXPROCS=N (Workers=N)
// over GOMAXPROCS=1 (Workers=1), each the best of two passes over
// specs on a fresh cache-less solver.
func batchSpeedup(rel compat.Relation, assign *skills.Assignment, specs []team.TaskSpec) (float64, error) {
	opts := servedOpts()
	best := func(procs int) (time.Duration, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		s := team.NewSolver(rel, assign, team.SolverOptions{Workers: procs})
		fastest := time.Duration(math.MaxInt64)
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			if _, err := s.FormBatchSpecs(specs, opts); err != nil {
				return 0, err
			}
			fastest = min(fastest, time.Since(t0))
		}
		return fastest, nil
	}
	tn, err := best(runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	t1, err := best(1)
	if err != nil {
		return 0, err
	}
	return t1.Seconds() / tn.Seconds(), nil
}

// noTeam reports the solver's "no team" answers, which the replay
// times like any other.
func noTeam(err error) bool {
	return errors.Is(err, team.ErrNoTeam) || errors.Is(err, team.ErrInfeasible)
}

// ---------------------------------------------------------------------------
// Serving workloads.

type serveTrace struct {
	solveTrace
	engineTrace
	handler, transport, overhead, rtt, replay dist // µs, /form requests
	mutateUS, rebuildMS                       dist
}

func traceServe(run *serveRun, dm *daemon, seed int64) (*serveTrace, error) {
	tr := &serveTrace{}
	dm.timer.mu.Lock()
	took := dm.timer.took
	dm.timer.took = map[int64]time.Duration{}
	dm.timer.mu.Unlock()

	// Replay the served stream, in send order, into the same public
	// calls the handlers make: Plan (through a plan cache of the
	// daemon's size), then the plan's solve.
	rs := team.NewSolver(dm.rel, dm.data.Assign, team.SolverOptions{Workers: run.cfg.parallel, PlanCache: run.cfg.planCache})
	ctx := context.Background()
	var plans []*team.TaskPlan
	var tm team.Team
	for _, s := range run.samples {
		if !s.ok() || s.kind == kindMutate {
			continue
		}
		e := run.pool[s.entry]
		opts := servedOpts()
		opts.Constraints = e.cons
		if s.kind == kindTopKDiverse {
			opts.DiverseLambda = diverseLambda
		}
		misses := rs.PlanCacheStats().Misses
		t0 := time.Now()
		p, err := rs.Plan(e.task, opts)
		t1 := time.Now()
		if rs.PlanCacheStats().Misses > misses {
			tr.compile = append(tr.compile, durUS(t1.Sub(t0)))
		}
		t2 := t1
		if err == nil {
			switch s.kind {
			case kindForm:
				err = p.FormIntoContext(ctx, &tm)
				t2 = time.Now()
				tr.solve = append(tr.solve, durUS(t2.Sub(t1)))
				if err == nil {
					tr.tally(&tm)
				}
				if len(plans) < 1<<15 {
					plans = append(plans, p)
				}
			case kindTopK:
				_, err = p.FormTopKContext(ctx, topK)
				t2 = time.Now()
				tr.topk = append(tr.topk, durUS(t2.Sub(t1)))
			case kindTopKDiverse:
				_, err = p.FormTopKDiverseContext(ctx, topK, diverseLambda)
				t2 = time.Now()
				tr.topk = append(tr.topk, durUS(t2.Sub(t1)))
			}
		}
		if err != nil && !noTeam(err) {
			return nil, fmt.Errorf("replay: %w", err)
		}
		h, ok := took[s.id]
		if s.kind != kindForm || !ok {
			continue
		}
		replay := t2.Sub(t0)
		tr.rtt = append(tr.rtt, durUS(s.rtt))
		tr.handler = append(tr.handler, durUS(h))
		tr.transport = append(tr.transport, durUS(s.rtt-h))
		tr.overhead = append(tr.overhead, durUS(h-replay))
		tr.replay = append(tr.replay, durUS(replay))
	}
	tr.countAllocs(plans)

	if run.cfg.mutations {
		if err := tr.traceMutations(run, dm, seed); err != nil {
			return nil, err
		}
	}
	specs := make([]team.TaskSpec, 0, 1024)
	for _, e := range run.pool[:min(1024, len(run.pool))] {
		specs = append(specs, team.TaskSpec{Task: e.task, Constraints: e.cons})
	}
	var err error
	tr.engineTrace, err = traceEngine(dm.rel, dm.data.Assign, specs, seed)
	return tr, err
}

// traceMutations replays the run's flips straight into
// MutableRelation.Mutate while a reader solves under snapshot pins, as
// the daemon's handlers do, and times the first row resolve after each
// flip: the stale-shard rebuild it triggers.
func (tr *serveTrace) traceMutations(run *serveRun, dm *daemon, seed int64) error {
	mr := dm.rel.(compat.MutableRelation)
	p, packed := dm.rel.(compat.PackedRelation)
	reader := team.NewSolver(dm.rel, dm.data.Assign, team.SolverOptions{Workers: 1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var tm team.Team
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := run.pool[i%len(run.pool)]
			opts := servedOpts()
			opts.Constraints = e.cons
			snap := mr.AcquireSnapshot()
			reader.FormIntoContext(context.Background(), e.task, opts, &tm)
			snap.Release()
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	n := dm.rel.Graph().NumNodes()
	for j, e := range run.flips[:min(10, len(run.flips))] {
		time.Sleep(50 * time.Millisecond)
		t0 := time.Now()
		if _, err := mr.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
			return fmt.Errorf("replayed flip: %w", err)
		}
		tr.mutateUS = append(tr.mutateUS, durUS(time.Since(t0)))
		if packed {
			u := sgraph.NodeID(draw(seed, streamSample, 1<<34+uint64(j)) * float64(n))
			t1 := time.Now()
			sink += len(p.RowWords(u))
			tr.rebuildMS = append(tr.rebuildMS, durMS(time.Since(t1)))
		}
	}
	return nil
}

// layers reports the per-layer metrics of a traced serving run, and
// the text of the layer split.
func (tr *serveTrace) layers(run *serveRun) (values, []string) {
	v := values{}
	var unreported []string
	loadgenLayer(v, run.samples, run.closed, &unreported)
	requests := len(run.samples) + run.closed.sent
	v["serve.handler_us_p50"] = tr.handler.median()
	v.tail("serve.handler_us_p99", tr.handler, 0.99, &unreported)
	v["serve.transport_us_p50"] = tr.transport.median()
	v["serve.overhead_us_p50"] = tr.overhead.median()
	sum := tr.transport.median() + tr.overhead.median() + tr.replay.median()
	v["serve.layer_gap_us_p50"] = tr.rtt.median() - sum
	b, a := run.before, run.after
	v["serve.admitted"] = float64(a.Server.Admitted - b.Server.Admitted)
	v["serve.shed"] = float64(a.Server.Shed - b.Server.Shed)
	v["serve.deadline_exceeded"] = float64(a.Server.DeadlineExceeded - b.Server.DeadlineExceeded)
	v["serve.infeasible"] = float64(a.Server.Infeasible - b.Server.Infeasible)

	hits, misses := a.PlanCache.Hits-b.PlanCache.Hits, a.PlanCache.Misses-b.PlanCache.Misses
	lookups := hits + misses
	v["team.plan_cache_lookups"] = float64(lookups)
	v["team.plan_cache_hit_ratio"] = 0
	if lookups > 0 {
		v["team.plan_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	v["team.plan_cache_evictions"] = float64(a.PlanCache.Evictions - b.PlanCache.Evictions)
	v["team.plan_cache_negative_hits"] = float64(a.PlanCache.NegativeHits - b.PlanCache.NegativeHits)
	tr.solveTrace.report(v)
	tr.engineTrace.report(v)

	v["compat.build_s"] = run.build.median()
	v["datasets.load_s"] = run.load.median()
	v["compat.spill_loads_per_req"] = 0
	v["compat.shard_rebuilds"] = 0
	if a.Sharded != nil && b.Sharded != nil {
		solves := requests - len(run.dirty)
		v["compat.spill_loads_per_req"] = float64(a.Sharded.SpillLoads-b.Sharded.SpillLoads) / float64(solves)
		v["compat.shard_rebuilds"] = float64(a.Sharded.ShardRebuilds - b.Sharded.ShardRebuilds)
	}
	v["compat.mutate_us"] = tr.mutateUS.median()
	v["compat.rebuild_ms"] = tr.rebuildMS.median()
	v["compat.dirty_shards_per_mutation"] = run.dirty.median()
	goLayer(v, run.rt, requests, &unreported)

	text := []string{
		"layer split of a served /form (p50, µs):",
		fmt.Sprintf("  round trip %.1f = transport %.1f + overhead %.1f + solve (replayed) %.1f + gap %.1f",
			tr.rtt.median(), tr.transport.median(), tr.overhead.median(), tr.replay.median(), tr.rtt.median()-sum),
		fmt.Sprintf("  handler %.1f (n=%d)", tr.handler.median(), len(tr.handler)),
		fmt.Sprintf("plan cache: %d hits of %d lookups", hits, lookups),
		fmt.Sprintf("dirty shards per mutation: %.1f of %d shards (n=%d flips)", run.dirty.median(), tr.shards, len(run.dirty)),
		fmt.Sprintf("batch speed-up: GOMAXPROCS=%d over GOMAXPROCS=1, %d tasks", tr.speedupProc, tr.speedupN),
	}
	return v, append(text, unreported...)
}

func (st *solveTrace) report(v values) {
	v["team.plan_compile_us"] = st.compile.median()
	v["team.solve_us"] = st.solve.median()
	v["team.topk_us"] = st.topk.median()
	v["team.seed_success_ratio"] = 0
	v["team.seeds_tried_per_solve"] = 0
	if st.seedsTried > 0 {
		v["team.seed_success_ratio"] = float64(st.seedsOK) / float64(st.seedsTried)
		v["team.seeds_tried_per_solve"] = float64(st.seedsTried) / float64(st.solves)
	}
	v["team.allocs_per_solve"] = st.allocsPerSolve
}

func (et *engineTrace) report(v values) {
	v["team.batch_speedup_procs"] = et.speedup
	v["compat.row_resolve_ns"] = et.rowNS
	v["compat.cold_row_resolve_us"] = et.coldUS
	v["compat.shard_count"] = float64(et.shards)
	v["signedbfs.row_us"] = et.bfsUS.median()
}

// tail sets v[name] to the q-quantile of d or, when fewer than
// minBeyond samples lie beyond it, to 0 with a line in *unreported
// saying so.
func (v values) tail(name string, d dist, q float64, unreported *[]string) {
	x, ok := d.quantile(q)
	if !ok {
		x = 0
		*unreported = append(*unreported, fmt.Sprintf("%s: not reported (0): %d samples, fewer than %d beyond the p%g", name, len(d), minBeyond, 100*q))
	}
	v[name] = x
}

// loadgenLayer reports the generator's own counts per phase and how
// late the open loop ran against its schedule.
func loadgenLayer(v values, samples []sample, closed closedCounts, unreported *[]string) {
	var late dist
	counts := map[string]float64{
		"loadgen.closed.sent":   float64(closed.sent),
		"loadgen.closed.ok":     float64(closed.sent - closed.failed),
		"loadgen.closed.failed": float64(closed.failed),
	}
	for _, s := range samples {
		ph := "closed"
		if s.phase == phaseOpen {
			ph = "open"
			late = append(late, durMS(s.late))
		}
		counts["loadgen."+ph+".sent"]++
		if s.ok() {
			counts["loadgen."+ph+".ok"]++
		} else {
			counts["loadgen."+ph+".failed"]++
		}
	}
	for _, ph := range []string{"open", "closed"} {
		for _, c := range []string{"sent", "ok", "failed"} {
			v["loadgen."+ph+"."+c] = counts["loadgen."+ph+"."+c]
		}
	}
	v.tail("loadgen.late_p99_ms", late, 0.99, unreported)
}

func goLayer(v values, rt runtimeDelta, requests int, unreported *[]string) {
	v["go.gc_cycles"] = float64(rt.gcCycles)
	v["go.gc_pause_p99_us"] = rt.pauseP99US
	if !rt.pauseP99OK {
		*unreported = append(*unreported, fmt.Sprintf("go.gc_pause_p99_us: not reported (0): %d pauses, fewer than %d beyond the p99", rt.pauses, minBeyond))
	}
	v["go.gc_pause_max_us"] = rt.pauseMaxUS
	v["go.alloc_bytes_per_req"] = float64(rt.allocBytes) / float64(max(requests, 1))
}

// ---------------------------------------------------------------------------
// batch-unique.

type batchTrace struct {
	solveTrace
	engineTrace
}

// traceBatch replays the run's first tasks (regenerated from the seed)
// into Solver.Plan and TaskPlan.FormIntoContext on a cache-less
// single-worker solver: one task's compile and grow/pick/pricing.
func traceBatch(run *batchRun, st *stack, seed int64) (*batchTrace, error) {
	gen, err := newUniqueTasks(seed, st.data.Assign)
	if err != nil {
		return nil, err
	}
	tasks := gen.next(2048)
	tr := &batchTrace{}
	s := team.NewSolver(st.rel, st.data.Assign, team.SolverOptions{Workers: 1})
	opts := servedOpts()
	var plans []*team.TaskPlan
	var tm team.Team
	for _, t := range tasks {
		t0 := time.Now()
		p, err := s.Plan(t, opts)
		t1 := time.Now()
		tr.compile = append(tr.compile, durUS(t1.Sub(t0)))
		if err != nil {
			if noTeam(err) {
				continue
			}
			return nil, err
		}
		err = p.FormIntoContext(context.Background(), &tm)
		tr.solve = append(tr.solve, durUS(time.Since(t1)))
		if err == nil {
			tr.tally(&tm)
		} else if !noTeam(err) {
			return nil, err
		}
		plans = append(plans, p)
	}
	tr.countAllocs(plans)
	specs := make([]team.TaskSpec, len(tasks))
	for i, t := range tasks {
		specs[i].Task = t
	}
	tr.engineTrace, err = traceEngine(st.rel, st.data.Assign, specs, seed)
	return tr, err
}

func (tr *batchTrace) layers(run *batchRun) (values, []string) {
	v := values{}
	for _, name := range []string{"loadgen.late_p99_ms", "loadgen.open.sent", "loadgen.open.ok", "loadgen.open.failed",
		"serve.handler_us_p50", "serve.handler_us_p99", "serve.transport_us_p50", "serve.overhead_us_p50",
		"serve.layer_gap_us_p50", "serve.admitted", "serve.shed", "serve.deadline_exceeded", "serve.infeasible",
		"team.plan_cache_hit_ratio", "team.plan_cache_lookups", "team.plan_cache_evictions", "team.plan_cache_negative_hits",
		"compat.spill_loads_per_req", "compat.mutate_us", "compat.dirty_shards_per_mutation", "compat.rebuild_ms",
		"compat.shard_rebuilds"} {
		v[name] = 0 // no HTTP, no plan cache, no spill, no mutation
	}
	v["loadgen.closed.sent"] = float64(run.tasks + run.failed)
	v["loadgen.closed.ok"] = float64(run.tasks)
	v["loadgen.closed.failed"] = float64(run.failed)
	tr.solveTrace.report(v)
	tr.engineTrace.report(v)
	v["compat.build_s"] = run.build.median()
	v["datasets.load_s"] = run.load.median()
	var unreported []string
	goLayer(v, run.rt, run.tasks, &unreported)
	text := []string{
		fmt.Sprintf("per task (Workers=1 replay of %d tasks): plan compile %.1f µs + solve %.1f µs", len(tr.compile), tr.compile.median(), tr.solve.median()),
		fmt.Sprintf("batch speed-up: GOMAXPROCS=%d over GOMAXPROCS=1, %d tasks", tr.speedupProc, tr.speedupN),
	}
	return v, append(text, unreported...)
}
