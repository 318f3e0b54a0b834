// Benchmarks regenerating every table and figure of the paper (at a
// reduced, fixed configuration so a full -bench=. run stays in the
// minutes range) plus the ablations called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers depend on the machine; the custom
// metrics (solved fractions, compatible-pair fractions, SBP/SBPH gap)
// are deterministic reproductions of the paper's measurements at
// bench scale. EXPERIMENTS.md records the full-scale runs.
package signedteams_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	signedteams "repro"
	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/predict"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
	"repro/internal/skills"
	"repro/internal/team"
)

// benchConfig is the reduced configuration all table/figure benches
// share: Epinions at 4% scale (≈1,154 users), 10 tasks per point.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:      1,
		Scale:     0.04,
		Tasks:     10,
		TaskSize:  5,
		TaskSizes: []int{2, 5, 10},
	}
}

// --- Table and figure benches (E1–E8 in DESIGN.md) -----------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkTable2Compatibility(b *testing.B) {
	cfg := benchConfig()
	cfg.SampleSources = 40 // exact SBP per source is the hot spot
	var lastUsers float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg, []string{"slashdot"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Relation == compat.NNE {
				lastUsers = r.CompUsers
			}
		}
	}
	b.ReportMetric(100*lastUsers, "NNE-comp-users-%")
}

func BenchmarkTable2SBPvsSBPH(b *testing.B) {
	// E3: the exact-vs-heuristic gap on Slashdot (paper: ≈2.5 points).
	cfg := benchConfig()
	cfg.SampleSources = 40
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg, []string{"slashdot"})
		if err != nil {
			b.Fatal(err)
		}
		var sbp, sbph float64
		for _, r := range rows {
			switch r.Relation {
			case compat.SBP:
				sbp = r.CompUsers
			case compat.SBPH:
				sbph = r.CompUsers
			}
		}
		gap = sbp - sbph
	}
	b.ReportMetric(100*gap, "SBP-minus-SBPH-pts")
}

func BenchmarkTable3UnsignedBaseline(b *testing.B) {
	cfg := benchConfig()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, r := range rows {
			if r.Relation == compat.SPA && r.CompatibleFrac < worst {
				worst = r.CompatibleFrac
			}
		}
	}
	b.ReportMetric(100*worst, "SPA-compatible-%")
}

func BenchmarkFigure2aSolutions(b *testing.B) {
	cfg := benchConfig()
	var lcmd float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure2ab(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Relation == compat.SPM && r.Algorithm == experiments.AlgoLCMD {
				lcmd = r.SolvedFrac
			}
		}
	}
	b.ReportMetric(100*lcmd, "SPM-LCMD-solved-%")
}

func BenchmarkFigure2bDiameter(b *testing.B) {
	cfg := benchConfig()
	var diam float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure2ab(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Relation == compat.SPM && r.Algorithm == experiments.AlgoLCMD {
				diam = r.AvgDiameter
			}
		}
	}
	b.ReportMetric(diam, "SPM-LCMD-diameter")
}

func BenchmarkFigure2cTaskSize(b *testing.B) {
	cfg := benchConfig()
	var solvedAtMax float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure2cd(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Relation == compat.SPA && r.TaskSize == 10 {
				solvedAtMax = r.SolvedFrac
			}
		}
	}
	b.ReportMetric(100*solvedAtMax, "SPA-k10-solved-%")
}

func BenchmarkFigure2dTaskSize(b *testing.B) {
	cfg := benchConfig()
	var diamAtMax float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure2cd(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Relation == compat.NNE && r.TaskSize == 10 {
				diamAtMax = r.AvgDiameter
			}
		}
	}
	b.ReportMetric(diamAtMax, "NNE-k10-diameter")
}

func BenchmarkPolicyGrid(b *testing.B) {
	// E9: the 2×2 policy ablation behind the paper's LCMD/LCMC choice.
	cfg := benchConfig()
	var lcmdDiam float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.PolicyGrid(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Skill == team.LeastCompatibleFirst && r.User == team.MinDistance {
				lcmdDiam = r.AvgDiameter
			}
		}
	}
	b.ReportMetric(lcmdDiam, "LCMD-diameter")
}

// --- Ablations (E10, E11) ------------------------------------------

func BenchmarkSBPHBeamWidth(b *testing.B) {
	// E10: how the SBPH beam width trades recall for work, against
	// the exact SBP ground truth on Slashdot.
	d, err := datasets.SlashdotSim(1)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	n := g.NumNodes()
	exactCompat := make(map[sgraph.NodeID]*balance.PathDists)
	for u := sgraph.NodeID(0); int(u) < 32; u++ {
		r, err := balance.ExactSBP(g, u, balance.ExactOptions{MaxLen: 12})
		if err != nil {
			b.Fatal(err)
		}
		exactCompat[u] = r
	}
	for _, beam := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("K=%d", beam), func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				found, total := 0, 0
				for u := sgraph.NodeID(0); int(u) < 32; u++ {
					h := balance.SBPH(g, u, beam)
					e := exactCompat[u]
					for v := 0; v < n; v++ {
						if e.PosDist[v] != balance.NoPath && int(u) != v {
							total++
							if h.PosDist[v] != balance.NoPath {
								found++
							}
						}
					}
				}
				recall = float64(found) / float64(total)
			}
			b.ReportMetric(100*recall, "recall-%")
		})
	}
}

func BenchmarkPathCounting(b *testing.B) {
	// E11: saturating uint64 counters vs exact big.Int (Algorithm 1).
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	rng := rand.New(rand.NewSource(9))
	sources := make([]sgraph.NodeID, 64)
	for i := range sources {
		sources[i] = sgraph.NodeID(rng.Intn(g.NumNodes()))
	}
	b.Run("saturating", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := signedbfs.CountPaths(g, sources[i%len(sources)])
			if r.SaturatedAt {
				b.Fatal("unexpected saturation")
			}
		}
	})
	b.Run("bigint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signedbfs.CountPathsBig(g, sources[i%len(sources)])
		}
	})
}

func BenchmarkCostObjectives(b *testing.B) {
	// Ablation: the paper's Diameter objective vs the SumDistance
	// extension, priced on the same tasks.
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := compat.MustNew(compat.SPM, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	rng := rand.New(rand.NewSource(5))
	var tasks []skills.Task
	for i := 0; i < 8; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, t)
	}
	for _, kind := range []team.CostKind{team.Diameter, team.SumDistance} {
		b.Run(kind.String(), func(b *testing.B) {
			var total int64
			var solved int
			for i := 0; i < b.N; i++ {
				tm, err := signedteams.FormTeam(rel, d.Assign, tasks[i%len(tasks)], team.Options{Cost: kind})
				if err != nil {
					if errors.Is(err, team.ErrNoTeam) {
						continue
					}
					b.Fatal(err)
				}
				total += int64(tm.Cost)
				solved++
			}
			if solved > 0 {
				b.ReportMetric(float64(total)/float64(solved), "avg-cost")
			}
		})
	}
}

func BenchmarkSignPrediction(b *testing.B) {
	// Extension bench: accuracy of the compatibility-derived sign
	// predictors (paper conclusions: link prediction).
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range predict.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				results, err := predict.Evaluate(d.Graph, rand.New(rand.NewSource(7)), 0.1, []predict.Method{m})
				if err != nil {
					b.Fatal(err)
				}
				acc = results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "accuracy-%")
		})
	}
}

func BenchmarkClustering(b *testing.B) {
	// Extension bench: correlation-clustering disagreements (paper
	// conclusions: clustering).
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	b.Run("TwoFactions", func(b *testing.B) {
		var bad int
		for i := 0; i < b.N; i++ {
			_, bad = cluster.TwoFactions(g)
		}
		b.ReportMetric(float64(bad), "disagreements")
	})
	b.Run("PivotCC+LocalSearch", func(b *testing.B) {
		var bad int
		for i := 0; i < b.N; i++ {
			labels := cluster.PivotCC(g, rand.New(rand.NewSource(int64(i))))
			var err error
			_, bad, err = cluster.LocalSearch(g, labels, 8)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(bad), "disagreements")
	})
}

func BenchmarkExactSolverScaling(b *testing.B) {
	// Theorem 2.2 made tangible: the exact TFSNC solver's work grows
	// exponentially with the task size even on a fixed small graph.
	d, err := datasets.SlashdotSim(1)
	if err != nil {
		b.Fatal(err)
	}
	rel := compat.MustNew(compat.NNE, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 4, 5} {
		task, err := skills.RandomTask(rng, d.Assign, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := team.Exact(rel, d.Assign, task, team.ExactOptions{})
				if err != nil && !errors.Is(err, team.ErrNoTeam) {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Core operation micro-benches ----------------------------------

// BenchmarkCountPaths contrasts the allocating CountPaths entry point
// with the zero-allocation engine: a warm (Result, Scratch) pair must
// report 0 allocs/op (the CI smoke test watches this).
func BenchmarkCountPaths(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	n := sgraph.NodeID(g.NumNodes())
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			signedbfs.CountPaths(g, sgraph.NodeID(i)%n)
		}
	})
	b.Run("warm", func(b *testing.B) {
		var res signedbfs.Result
		scratch := signedbfs.NewScratch(g.NumNodes())
		signedbfs.CountPathsInto(g, 0, &res, scratch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			signedbfs.CountPathsInto(g, sgraph.NodeID(i)%n, &res, scratch)
		}
	})
}

// BenchmarkMultiSweep times one bit-parallel signed BFS from 64
// sources — the unit of work the packed SPA/SPO/DPE/NNE builds run per
// block of rows — and, as warm_counts, the same sweep in counting mode,
// the unit of the packed SPM build; warm_counts_1src is a one-source
// counting sweep, the unit of a 1-row SPM shard rebuild (compare
// BenchmarkCountPaths/warm, the lazy engine's row). The warm
// sub-benches reuse one MultiSweep and must report 0 allocs/op (the CI
// smoke test watches them).
func BenchmarkMultiSweep(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	n := g.NumNodes()
	srcs := make([]sgraph.NodeID, signedbfs.MaxSources)
	block := func(i int) []sgraph.NodeID {
		for j := range srcs {
			srcs[j] = sgraph.NodeID((i*signedbfs.MaxSources + j) % n)
		}
		return srcs
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw := signedbfs.NewMultiSweep(n)
			for ok := sw.Start(g, block(i)); ok; ok = sw.Next() {
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sw := signedbfs.NewMultiSweep(n)
		for ok := sw.Start(g, block(0)); ok; ok = sw.Next() {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ok := sw.Start(g, block(i)); ok; ok = sw.Next() {
			}
		}
	})
	b.Run("warm_counts", func(b *testing.B) {
		sw := signedbfs.NewMultiSweep(n)
		for ok := sw.StartCounting(g, block(0)); ok; ok = sw.Next() {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ok := sw.StartCounting(g, block(i)); ok; ok = sw.Next() {
			}
		}
	})
	b.Run("warm_counts_1src", func(b *testing.B) {
		sw := signedbfs.NewMultiSweep(n)
		src := []sgraph.NodeID{0}
		for ok := sw.StartCounting(g, src); ok; ok = sw.Next() {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src[0] = sgraph.NodeID(i % n) // CountPaths/warm's sources
			for ok := sw.StartCounting(g, src); ok; ok = sw.Next() {
			}
		}
	})
}

// BenchmarkMatrixBuild times the full packed-matrix build. Both kinds
// fill 64 rows per multi-source sweep: SPO from the plain sweep's sign
// bits, SPM from the counting sweep, whose per-source path counters
// settle the majority test where both signs reach a node.
func BenchmarkMatrixBuild(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []compat.Kind{compat.SPO, compat.SPM} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compat.NewSharded(k, d.Graph, compat.ShardedOptions{ShardRows: d.Graph.NumNodes()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFormTeamEngines races the lazy row-cache relation against
// the packed matrix backend on the same Algorithm 2 workload (LCMD on
// bench-scale Epinions). Both engines get their all-pairs precompute
// outside the timer, so the measured gap is pure query-path cost:
// per-pair interface calls vs word-parallel bitset AND/popcount and
// packed distance lookups.
func BenchmarkFormTeamEngines(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sampled []skills.Task
	for i := 0; i < 16; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		sampled = append(sampled, t)
	}
	run := func(b *testing.B, rel compat.Relation) {
		for i := 0; i < b.N; i++ {
			_, err := signedteams.FormTeam(rel, d.Assign, sampled[i%len(sampled)], team.Options{
				Skill: team.LeastCompatibleFirst,
				User:  team.MinDistance,
			})
			if err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	}
	b.Run("lazy", func(b *testing.B) {
		rel := compat.MustNew(compat.SPM, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
		if err := compat.Precompute(rel, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, rel)
	})
	b.Run("matrix", func(b *testing.B) {
		rel := mustMatrix(compat.SPM, d.Graph)
		b.ResetTimer()
		run(b, rel)
	})
}

// BenchmarkSolverForm measures the reusable solver's plan/scratch
// split: "fresh" pays plan compilation per solve (Solver.FormIntoContext
// into a fresh Team), "warm" reuses a compiled plan and the solver's scratch — the
// serving path, which must stay at 0 allocs/op on the matrix engine
// (the CI alloc smoke watches this). "warm-workers2" is the same warm
// solve on a two-worker solver: a single solve runs its seed loop on
// the calling goroutine at any worker count, so it must stay at 0
// allocs/op too.
func BenchmarkSolverForm(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := mustMatrix(compat.SPM, d.Graph)
	task, err := skills.RandomTask(rand.New(rand.NewSource(3)), d.Assign, 5)
	if err != nil {
		b.Fatal(err)
	}
	opts := team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}
	solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := solver.FormIntoContext(context.Background(), task, opts, new(team.Team)); err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	})
	warm := func(solver *team.Solver) func(b *testing.B) {
		return func(b *testing.B) {
			plan, err := solver.Plan(task, opts)
			if err != nil {
				b.Fatal(err)
			}
			var tm team.Team
			for i := 0; i < 2; i++ { // fill the scratch pool and buffers
				if err := plan.FormIntoContext(context.Background(), &tm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.FormIntoContext(context.Background(), &tm); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("warm", warm(solver))
	b.Run("warm-workers2", warm(team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 2})))
}

// BenchmarkPlanCacheServe measures the cross-request serving layer:
// repeated tasks answered through Solver.FormIntoContext. "uncached" pays
// plan compilation on every request (the PR 3 serving path);
// "warm" serves every request from the plan cache — the hit path,
// which must stay at 0 allocs/op on the matrix engine (the CI alloc
// smoke watches this); "thrash" runs the same workload through a
// cache smaller than the working set, pricing the eviction worst
// case.
func BenchmarkPlanCacheServe(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := mustMatrix(compat.SPM, d.Graph)
	rng := rand.New(rand.NewSource(3))
	var tasks []skills.Task
	for i := 0; i < 16; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, t)
	}
	opts := team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}
	serve := func(b *testing.B, solver *team.Solver, tm *team.Team) {
		for i := 0; i < b.N; i++ {
			err := solver.FormIntoContext(context.Background(), tasks[i%len(tasks)], opts, tm)
			if err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1})
		b.ReportAllocs()
		serve(b, solver, &team.Team{})
	})
	b.Run("warm", func(b *testing.B) {
		solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1, PlanCache: 64})
		var tm team.Team             // shared with the timed loop so its buffer is warm too
		for _, task := range tasks { // compile every plan outside the timer
			if err := solver.FormIntoContext(context.Background(), task, opts, &tm); err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		serve(b, solver, &tm)
		b.StopTimer() // the stats read below is not part of the serve path
		st := solver.PlanCacheStats()
		b.ReportMetric(100*st.HitRate(), "hit-%")
	})
	b.Run("thrash", func(b *testing.B) {
		// 16 distinct keys over 8 slots, round-robin: every request
		// misses and evicts — the cache's overhead ceiling.
		solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1, PlanCache: 8})
		b.ReportAllocs()
		serve(b, solver, &team.Team{})
	})
}

// BenchmarkFormBatchRepeated is the repeated-task batch workload the
// plan cache exists for: 128 tasks drawn from 16 distinct, solved
// through FormBatch on the matrix engine with and without a plan
// cache. Compare against BenchmarkFormBatch (all-distinct tasks) and
// the PR 3 matrix_batch baseline in BENCH_form.json.
func BenchmarkFormBatchRepeated(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := mustMatrix(compat.SPM, d.Graph)
	rng := rand.New(rand.NewSource(3))
	var distinct []skills.Task
	for i := 0; i < 16; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		distinct = append(distinct, t)
	}
	tasks := make([]skills.Task, 128)
	for i := range tasks {
		tasks[i] = distinct[rng.Intn(len(distinct))]
	}
	opts := team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}
	for _, cache := range []int{0, 64} {
		name := "no-cache"
		if cache > 0 {
			name = "plan-cache"
		}
		b.Run(name, func(b *testing.B) {
			solver := team.NewSolver(rel, d.Assign, team.SolverOptions{PlanCache: cache})
			for i := 0; i < b.N; i++ {
				if _, err := solver.FormBatch(tasks, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(tasks))/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkLazyFormDecomposed isolates where a lazy-engine one-shot
// solve spends its time, to attribute the PR 2 → PR 3 sequential-Form
// delta recorded in BENCH_form.json: "form" builds a throwaway solver
// per call (the FormTeam path), "solver-form" reuses the solver
// but compiles a plan per call, and "warm-plan" only solves. The
// row cache is fully precomputed, so every split measures pure
// query-path work.
func BenchmarkLazyFormDecomposed(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := compat.MustNew(compat.SPM, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	if err := compat.Precompute(rel, 0); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var tasks []skills.Task
	for i := 0; i < 16; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, t)
	}
	opts := team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}
	b.Run("form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := signedteams.FormTeam(rel, d.Assign, tasks[i%len(tasks)], opts); err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	})
	b.Run("solver-form", func(b *testing.B) {
		solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := solver.FormIntoContext(context.Background(), tasks[i%len(tasks)], opts, new(team.Team)); err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-plan", func(b *testing.B) {
		solver := team.NewSolver(rel, d.Assign, team.SolverOptions{Workers: 1})
		plans := make([]*team.TaskPlan, 0, len(tasks))
		for _, task := range tasks {
			p, err := solver.Plan(task, opts)
			if err != nil {
				if errors.Is(err, team.ErrNoTeam) {
					continue
				}
				b.Fatal(err)
			}
			plans = append(plans, p)
		}
		var tm team.Team
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := plans[i%len(plans)].FormIntoContext(context.Background(), &tm); err != nil && !errors.Is(err, team.ErrNoTeam) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFormBatch races a sequential one-shot FormTeam loop
// against Solver.FormBatch on every engine — the batch-serving
// speedup the solver exists for (plan/scratch reuse plus the worker
// pool). The acceptance bar is batch ≥ 2× loop on the matrix engine.
func BenchmarkFormBatch(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var tasks []skills.Task
	for i := 0; i < 32; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, t)
	}
	opts := team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}
	engines := []struct {
		name  string
		build func() compat.Relation
	}{
		{"lazy", func() compat.Relation {
			rel := compat.MustNew(compat.SPM, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
			if err := compat.Precompute(rel, 0); err != nil {
				b.Fatal(err)
			}
			return rel
		}},
		{"matrix", func() compat.Relation {
			return mustMatrix(compat.SPM, d.Graph)
		}},
		{"sharded", func() compat.Relation {
			return compat.MustNewSharded(compat.SPM, d.Graph, compat.ShardedOptions{})
		}},
	}
	for _, e := range engines {
		rel := e.build()
		b.Run(e.name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, task := range tasks {
					if _, err := signedteams.FormTeam(rel, d.Assign, task, opts); err != nil && !errors.Is(err, team.ErrNoTeam) {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(tasks))/b.Elapsed().Seconds(), "tasks/s")
		})
		b.Run(e.name+"/batch", func(b *testing.B) {
			solver := team.NewSolver(rel, d.Assign, team.SolverOptions{})
			for i := 0; i < b.N; i++ {
				if _, err := solver.FormBatch(tasks, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(tasks))/b.Elapsed().Seconds(), "tasks/s")
		})
		if c, ok := rel.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}

// BenchmarkShardedSweep is the cold-shard story's acceptance
// benchmark: a sequential full-row sweep (RowWords + DistanceRow per
// source, the ComputeStats/export access pattern) over a ShardedMatrix
// whose residency bound keeps most shards spilled, so every shard
// boundary pays a reload. Variants select the spill read backend:
//
//   - readback — ReadAt into a scratch buffer.
//   - mmap     — reloads decode straight out of the mapping.
func BenchmarkShardedSweep(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	n := d.Graph.NumNodes()
	variants := []struct {
		name   string
		noMmap bool
	}{
		{"readback", true},
		{"mmap", false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			m := compat.MustNewSharded(compat.SPM, d.Graph, compat.ShardedOptions{
				ShardRows:         64,
				MaxResidentShards: 4,
				DisableMmap:       v.noMmap,
			})
			defer m.Close()
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := sgraph.NodeID(0); int(u) < n; u++ {
					for _, w := range m.RowWords(u) {
						sink += w & 1
					}
					if dist, ok := m.DistanceRow(u).At(sgraph.NodeID((int(u) + 1) % n)); ok {
						sink += uint64(dist)
					}
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("sweep read nothing")
			}
			b.ReportMetric(float64(b.N)*float64(n)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkShardedResidentRow pins the serving fast paths of the
// packed engine: rows must serve RowWords and DistanceRow with zero
// allocations — the CI alloc smoke greps the "warm" sub-benchmarks.
// "warm" reads a resident shard of a spilling engine (reloaded out of
// the mapping once, during warm-up; the locked path), and
// "warm_allresident" a single-shard, fully resident engine — the
// matrix configuration, read lock-free through the published table.
func BenchmarkShardedResidentRow(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	n := d.Graph.NumNodes()
	spilling := compat.MustNewSharded(compat.SPM, d.Graph, compat.ShardedOptions{
		ShardRows:         64,
		MaxResidentShards: 4,
	})
	defer spilling.Close()
	resident := compat.MustNewSharded(compat.SPM, d.Graph, compat.ShardedOptions{
		ShardRows:         n,
		MaxResidentShards: 0,
	})
	defer resident.Close()
	for _, c := range []struct {
		name string
		m    *compat.ShardedMatrix
		rows int
	}{
		{"warm", spilling, 64}, // stay inside shard 0: resident after the first touch
		{"warm_allresident", resident, n},
	} {
		b.Run(c.name, func(b *testing.B) {
			for u := sgraph.NodeID(0); int(u) < c.rows; u++ {
				c.m.RowWords(u) // warm-up: reload shard 0 (an mmap decode) when spilled
			}
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := sgraph.NodeID(i % c.rows)
				sink += c.m.RowWords(u)[0]
				if dist, ok := c.m.DistanceRow(u).At(0); ok {
					sink += uint64(dist)
				}
			}
			_ = sink
		})
	}
}

func BenchmarkSignedBFSRow(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signedbfs.CountPaths(g, sgraph.NodeID(i%g.NumNodes()))
	}
}

func BenchmarkSBPHRow(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balance.SBPH(g, sgraph.NodeID(i%g.NumNodes()), balance.DefaultBeamWidth)
	}
}

func BenchmarkExactSBPRow(b *testing.B) {
	d, err := datasets.SlashdotSim(1)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balance.ExactSBP(g, sgraph.NodeID(i%g.NumNodes()), balance.ExactOptions{MaxLen: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormTeamLCMD(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	rel := compat.MustNew(compat.SPM, d.Graph, compat.Options{CacheCap: d.Graph.NumNodes() + 1})
	rng := rand.New(rand.NewSource(3))
	var sampled []skills.Task
	for i := 0; i < 16; i++ {
		t, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		sampled = append(sampled, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := signedteams.FormTeam(rel, d.Assign, sampled[i%len(sampled)], team.Options{
			Skill: team.LeastCompatibleFirst,
			User:  team.MinDistance,
		})
		if err != nil && !errors.Is(err, team.ErrNoTeam) {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutateThenQuery measures the point of the epoch/dirty-shard
// machinery: after a single sign flip, answering a query by lazily
// rebuilding only the dirtied shard(s) versus rebuilding the whole
// sharded engine from scratch. The workload is the bench-standard
// Epinions stand-in (1,154 users) on the sharded SPO engine at 64-row
// shards (19 shards); the post-mutation query reads one distance row,
// which is what a Form seed evaluation does per candidate. The
// incremental path must beat the full rebuild by ≥10× (tracked in
// BENCH_form.json).
func BenchmarkMutateThenQuery(b *testing.B) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	// The edge to flip: the first edge of node 0.
	var eu, ev sgraph.NodeID
	g.Neighbors(0, func(v sgraph.NodeID, s sgraph.Sign) bool {
		eu, ev = 0, v
		return false
	})
	if eu == ev {
		b.Fatal("node 0 has no edges")
	}
	shardOpts := compat.ShardedOptions{ShardRows: 64}
	row := sgraph.NodeID(g.NumNodes() - 1) // last shard: far from the flip row
	var buf []int32

	b.Run("flip-requery", func(b *testing.B) {
		m := compat.MustNewSharded(compat.SPO, g, shardOpts)
		defer m.Close()
		buf = m.DistanceRowInto(row, buf) // warm build outside the loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: eu, V: ev}); err != nil {
				b.Fatal(err)
			}
			buf = m.DistanceRowInto(row, buf)
		}
	})
	b.Run("rebuild-requery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := compat.MustNewSharded(compat.SPO, g, shardOpts)
			buf = m.DistanceRowInto(row, buf)
			m.Close()
		}
	})
}

// mustMatrix builds the matrix configuration of the packed engine —
// one shard holding every row, all resident — the engine -engine
// matrix selects.
func mustMatrix(k compat.Kind, g *sgraph.Graph) *compat.ShardedMatrix {
	return compat.MustNewSharded(k, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
}
