package team

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// BenchmarkPickMinDistancePacked measures the solver's MinDistance
// solve on a packed matrix — the path that runs through the fused
// AND-popcount-argmin pick (DistRows.PickMin / kernels.ArgminMaxU8).
// The warm sub-benchmark reuses a single-worker solver's scratch and
// plan cache, so it must stay 0 allocs/op (asserted by CI's
// alloc-smoke); cold recompiles the plan every call for scale.
// warm_zipf is the warm solve on the Epinions stand-in at 4% scale,
// SPM matrix, LeastCompatibleFirst: cached 5-skill tasks that mix
// popular and rare skills of its Zipf-skewed assignment, so the picks
// scan holder sets from a few words to most of the row. warm_zipf_sum
// is the same solve under SumDistance, whose pick runs the sum kernel.
// Both must stay 0 allocs/op.
func BenchmarkPickMinDistancePacked(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n, numSkills = 512, 12
	g := randomTeamGraph(rng, n, 8*n, 0.2)
	assign := randomAssignment(b, rng, n, numSkills)
	m, err := compat.NewSharded(compat.SPO, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	task := skills.Task{0, 3, 5, 9}
	opts := Options{Skill: RarestFirst, User: MinDistance, Cost: Diameter}

	b.Run("warm", func(b *testing.B) {
		s := NewSolver(m, assign, SolverOptions{Workers: 1, PlanCache: 8})
		var dst Team
		if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := NewSolver(m, assign, SolverOptions{Workers: 1})
		var dst Team
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		cost CostKind
	}{{"warm_zipf", Diameter}, {"warm_zipf_sum", SumDistance}} {
		zipfOpts := Options{Skill: LeastCompatibleFirst, User: MinDistance, Cost: c.cost}
		var zipfSolver *Solver
		var zipfTasks []skills.Task
		b.Run(c.name, func(b *testing.B) {
			if zipfSolver == nil {
				zipfSolver, zipfTasks = zipfPickFixture(b, zipfOpts)
				// Collect the dataset build's garbage now, so no GC cycle
				// empties the scratch pool during the timed loop.
				runtime.GC()
			}
			var dst Team
			for _, task := range zipfTasks { // grow dst.Members to the largest team
				if err := zipfSolver.FormIntoContext(context.Background(), task, zipfOpts, &dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := zipfSolver.FormIntoContext(context.Background(), zipfTasks[i%len(zipfTasks)], zipfOpts, &dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zipfPickFixture builds warm_zipf's single-worker solver over the
// Epinions stand-in at 4% scale and its SPM matrix, and draws eight
// feasible 5-skill tasks, each two skills from the most-held tenth of
// the skills and three from the less-held half, solving each once so
// its plan is cached.
func zipfPickFixture(b *testing.B, opts Options) (*Solver, []skills.Task) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	m, err := compat.NewSharded(compat.SPM, d.Graph, compat.ShardedOptions{ShardRows: d.Graph.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	byHolders := d.Assign.SkillsWithHolders()
	slices.SortStableFunc(byHolders, func(x, y skills.SkillID) int {
		return d.Assign.NumHolders(y) - d.Assign.NumHolders(x)
	})
	popular, rare := byHolders[:len(byHolders)/10], byHolders[len(byHolders)/2:]
	s := NewSolver(m, d.Assign, SolverOptions{Workers: 1, PlanCache: 16})
	var tasks []skills.Task
	rng := rand.New(rand.NewSource(7))
	var dst Team
	for tries := 0; len(tasks) < 8; tries++ {
		if tries == 1000 {
			b.Fatalf("only %d feasible tasks in %d draws", len(tasks), tries)
		}
		ids := make([]skills.SkillID, 0, 5)
		for _, from := range [][]skills.SkillID{popular, popular, rare, rare, rare} {
			ids = append(ids, from[rng.Intn(len(from))])
		}
		task := skills.NewTask(ids...)
		if len(task) < 5 {
			continue // a repeated draw
		}
		switch err := s.FormIntoContext(context.Background(), task, opts, &dst); {
		case err == nil:
			tasks = append(tasks, task)
		case !errors.Is(err, ErrNoTeam):
			b.Fatal(err)
		}
	}
	return s, tasks
}

// BenchmarkConstrainedFormInto is BenchmarkPickMinDistancePacked's
// instance under constraints: an include joining every grow, a packed
// exclusion mask folded into the eligibility mask, and a size cap
// gating the greedy loop. Constraint state lives entirely in the
// compiled plan, so the warm sub-benchmark must stay 0 allocs/op
// exactly like the unconstrained path (asserted by CI's alloc-smoke);
// cold recompiles the plan — canonicalisation, exclusion bitset,
// allow-mask — every call.
func BenchmarkConstrainedFormInto(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n, numSkills = 512, 12
	g := randomTeamGraph(rng, n, 8*n, 0.2)
	assign := randomAssignment(b, rng, n, numSkills)
	m, err := compat.NewSharded(compat.SPO, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	task := skills.Task{0, 3, 5, 9}
	opts := Options{
		Skill: RarestFirst, User: MinDistance, Cost: Diameter,
		Constraints: Constraints{
			MustInclude: []sgraph.NodeID{7},
			MustExclude: []sgraph.NodeID{11, 42, 99, 200},
			MaxTeamSize: 8,
		},
	}

	b.Run("warm", func(b *testing.B) {
		s := NewSolver(m, assign, SolverOptions{Workers: 1, PlanCache: 8})
		var dst Team
		if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := NewSolver(m, assign, SolverOptions{Workers: 1})
		var dst Team
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormIntoContext(context.Background(), task, opts, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCompileUnique measures cold plan compilation — the
// LeastCompatibleFirst degree pass, seeds and MinDistance setup — over
// a seeded stream of distinct 5-skill tasks on the SPM matrix, with no
// plan cache: the compile layer of a unique-task batch on its own.
// The ~600-skill Zipf universe has well over 2^16 skill pairs with
// holders, so the stream keeps meeting pairs it has not seen before
// until the pair-degree memo holds the whole universe.
func BenchmarkPlanCompileUnique(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n, numSkills, numTasks = 1024, 600, 1 << 15
	g := randomTeamGraph(rng, n, 8*n, 0.2)
	assign, err := skills.GenerateZipf(rng, n, skills.ZipfConfig{NumSkills: numSkills, MeanSkillsPerUser: 5})
	if err != nil {
		b.Fatal(err)
	}
	if h := len(assign.SkillsWithHolders()); h*(h-1)/2 <= 1<<16 {
		b.Fatalf("only %d skills have holders: %d pairs do not exceed 2^16", h, h*(h-1)/2)
	}
	m, err := compat.NewSharded(compat.SPM, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]skills.Task, 0, numTasks)
	seen := make(map[[5]skills.SkillID]bool, numTasks)
	for len(tasks) < numTasks {
		task, err := skills.RandomTask(rng, assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		if key := [5]skills.SkillID(task); !seen[key] {
			seen[key] = true
			tasks = append(tasks, task)
		}
	}
	s := NewSolver(m, assign, SolverOptions{Workers: 1})
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance, Cost: Diameter}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(tasks[i%numTasks], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormBatchUnique is the in-process solve loop of a
// unique-task batch: FormBatch at one worker, with no plan cache, over
// chunks of 128 distinct seeded 5-skill tasks on the Epinions stand-in
// at 20% scale and its SPM matrix, LeastCompatibleFirst, MinDistance,
// Diameter. Each op is one chunk; ns/task is the time per task. Before
// timing, it replays the seed loop of every task once and reports
// seeds/solve, the seeds Algorithm 2 tries, and grows/solve, those the
// bounded loop's screen lets join and grow.
func BenchmarkFormBatchUnique(b *testing.B) {
	const chunk, numTasks = 128, 128 * 32
	d, err := datasets.EpinionsSim(1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	m := mustMatrix(b, compat.SPM, d.Graph)
	rng := rand.New(rand.NewSource(1))
	tasks := make([]skills.Task, 0, numTasks)
	seen := make(map[[5]skills.SkillID]bool, numTasks)
	for len(tasks) < numTasks {
		task, err := skills.RandomTask(rng, d.Assign, 5)
		if err != nil {
			b.Fatal(err)
		}
		if key := [5]skills.SkillID(task); !seen[key] {
			seen[key] = true
			tasks = append(tasks, task)
		}
	}
	s := NewSolver(m, d.Assign, SolverOptions{Workers: 1})
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance, Cost: Diameter}
	seeds, grows := 0, 0
	sc := s.getScratch()
	for _, task := range tasks {
		p, err := s.Plan(task, opts)
		if err != nil {
			b.Fatal(err)
		}
		visits, _, _, err := replaySeeds(p, sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range visits {
			seeds++
			if !v.screened {
				grows++
			}
		}
	}
	s.putScratch(sc)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * chunk % numTasks
		if _, err := s.FormBatch(tasks[at:at+chunk], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/task")
	b.ReportMetric(float64(seeds)/numTasks, "seeds/solve")
	b.ReportMetric(float64(grows)/numTasks, "grows/solve")
}
