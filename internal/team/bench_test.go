package team

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// BenchmarkPickMinDistancePacked measures the solver's MinDistance
// solve on a packed matrix — the path that runs through the fused
// AND-popcount-argmin pick (DistRows.PickMin / kernels.ArgminMaxU8).
// The warm sub-benchmark reuses a single-worker solver's scratch and
// plan cache, so it must stay 0 allocs/op (asserted by CI's
// alloc-smoke); cold recompiles the plan every call for scale.
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
		if err := s.FormInto(task, opts, &dst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormInto(task, opts, &dst); err != nil {
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
			if err := s.FormInto(task, opts, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
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
		if err := s.FormInto(task, opts, &dst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.FormInto(task, opts, &dst); err != nil {
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
			if err := s.FormInto(task, opts, &dst); err != nil {
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
