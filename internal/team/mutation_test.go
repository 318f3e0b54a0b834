// Plan-cache behaviour over mutable relations: cached plans (positive
// and negative) are keyed by the relation's mutation epoch, so a graph
// mutation retires them all and the solver recompiles against the
// mutated relation — never serving a team ranked, seeded or pooled
// from a stale compatibility structure. The solver-level mutation
// oracle at the bottom interleaves mutations with Form/FormBatch and
// pins every post-mutation answer to a fresh solver built from scratch.

package team

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// mutableSolverEngines builds the mutable engine configurations a
// cached solver can sit on: the full matrix and sharded variants
// (including a spilling one). The lazy engine is exercised by the
// oracle test via MustNew.
func mutableSolverEngines(t *testing.T, k compat.Kind, g *sgraph.Graph) map[string]compat.MutableRelation {
	t.Helper()
	engines := map[string]compat.MutableRelation{
		"lazy":   compat.MustNew(k, g, compat.Options{}).(compat.MutableRelation),
		"matrix": mustMatrix(k, g),
		"sharded": compat.MustNewSharded(k, g, compat.ShardedOptions{
			ShardRows: 4,
		}),
		"sharded-spill": compat.MustNewSharded(k, g, compat.ShardedOptions{
			ShardRows: 3, MaxResidentShards: 2, SpillDir: t.TempDir(),
		}),
	}
	t.Cleanup(func() {
		for _, rel := range engines {
			if sm, ok := rel.(*compat.ShardedMatrix); ok {
				sm.Close()
			}
		}
	})
	return engines
}

// TestPlanCacheEpochInvalidation: a cached plan must stop being served
// the moment the relation mutates. The cached solver's post-mutation
// answers are pinned to an uncached solver over the same (mutated)
// relation, and the cache counters must show a recompile (a miss) at
// the new epoch followed by hits once the epoch is warm again.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	const n = 24
	g := randomTeamGraph(rng, n, 5*n, 0.25)
	assign := randomAssignment(t, rng, n, 6)
	task, err := skills.RandomTask(rng, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	edges := teamGraphEdges(g)
	for name, rel := range mutableSolverEngines(t, compat.SPO, g) {
		plain := NewSolver(rel, assign, SolverOptions{Workers: 1})
		cached := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 8})
		solve := func(s *Solver) (*Team, error) {
			tm, err := formNew(s, task, opts)
			if err != nil && !errors.Is(err, ErrNoTeam) {
				t.Fatalf("%s: %v", name, err)
			}
			return tm, err
		}
		compare := func(stage string) {
			want, wantErr := solve(plain)
			got, gotErr := solve(cached)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s/%s: plain err=%v cached err=%v", name, stage, wantErr, gotErr)
			}
			if wantErr == nil {
				sameTeam(t, name+"/"+stage, want, got)
			}
		}
		compare("pre-mutation")
		solve(cached) // warm repeat at epoch 0
		pre := cached.PlanCacheStats()
		if pre.Hits == 0 {
			t.Fatalf("%s: repeat at a fixed epoch did not hit: %+v", name, pre)
		}

		// Flip a handful of signs; each flip moves the epoch, so the
		// cached plan key changes even when the team happens not to.
		for i := 0; i < 4; i++ {
			e := edges[(i*5)%len(edges)]
			if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
				t.Fatalf("%s: flip %d: %v", name, i, err)
			}
		}
		compare("post-mutation")
		mid := cached.PlanCacheStats()
		if mid.Misses <= pre.Misses {
			t.Fatalf("%s: mutation did not force a recompile: %+v -> %+v", name, pre, mid)
		}
		// The new epoch is now warm: repeats hit again.
		solve(cached)
		if post := cached.PlanCacheStats(); post.Hits <= mid.Hits {
			t.Fatalf("%s: repeat at the new epoch did not hit: %+v -> %+v", name, mid, post)
		}
	}
}

// TestPlanCacheNegativeEntryEpochKeying: cached plan-time ErrNoTeam
// entries are epoch-keyed like positive plans — a mutation retires
// them, the next solve recompiles (and re-fails), and repeats at the
// new epoch are served from the fresh negative entry.
func TestPlanCacheNegativeEntryEpochKeying(t *testing.T) {
	rng := rand.New(rand.NewSource(821))
	const n = 16
	g := randomTeamGraph(rng, n, 4*n, 0.25)
	u := skills.GenerateUniverse(3)
	assign := skills.NewAssignment(u, n)
	for v := 0; v < n; v++ {
		assign.MustAdd(sgraph.NodeID(v), skills.SkillID(v%2)) // skill 2 has no holders
	}
	rel := mustMatrix(compat.SPO, g)
	s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 4})
	task := skills.NewTask(0, 2)
	mustNoTeam := func(stage string) {
		t.Helper()
		if _, err := formNew(s, task, Options{}); !errors.Is(err, ErrNoTeam) {
			t.Fatalf("%s: err = %v, want ErrNoTeam", stage, err)
		}
	}
	mustNoTeam("cold")
	mustNoTeam("warm")
	st := s.PlanCacheStats()
	if st.NegativeHits != 1 || st.Misses != 1 {
		t.Fatalf("pre-mutation stats %+v, want 1 negative hit / 1 miss", st)
	}
	e := teamGraphEdges(g)[0]
	if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
		t.Fatal(err)
	}
	mustNoTeam("post-mutation cold") // stale negative entry must not match
	mustNoTeam("post-mutation warm")
	st = s.PlanCacheStats()
	if st.Misses != 2 {
		t.Fatalf("post-mutation stats %+v, want a second miss (recompile)", st)
	}
	if st.NegativeHits != 2 {
		t.Fatalf("post-mutation stats %+v, want the fresh negative entry to serve the repeat", st)
	}
}

// TestSolverMutationOracle interleaves sign flips and edge removals
// with Form and FormBatch on a cached solver over a mutable sharded
// engine, pinning every answer to a fresh solver built from scratch on
// the mutated graph — the end-to-end correctness contract from
// sgraph.Dynamic through dirty-shard rebuilds to plan-cache epochs.
func TestSolverMutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(831))
	const n, steps = 20, 10
	g := randomTeamGraph(rng, n, 5*n, 0.25)
	assign := randomAssignment(t, rng, n, 5)
	var tasks []skills.Task
	for i := 0; i < 3; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	rel := compat.MustNewSharded(compat.SPO, g, compat.ShardedOptions{
		ShardRows: 3, MaxResidentShards: 2, SpillDir: t.TempDir(),
	})
	defer rel.Close()
	cached := NewSolver(rel, assign, SolverOptions{Workers: 2, PlanCache: 4})

	edges := teamGraphEdges(g)
	for step := 0; step < steps; step++ {
		e := edges[(step*7)%len(edges)]
		mut := sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}
		if step%3 == 2 {
			// Remove then re-add keeps the oracle edge list bookkeeping
			// trivial: the edge set only ever changes by sign.
			if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutRemove, U: e.U, V: e.V}); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			mut = sgraph.Mutation{Op: sgraph.MutAdd, U: e.U, V: e.V, Sign: sgraph.Negative}
		}
		if _, err := rel.Mutate(mut); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		fresh := compat.MustNew(compat.SPO, rel.Graph(), compat.Options{})
		oracle := NewSolver(fresh, assign, SolverOptions{Workers: 1})
		want, err := oracle.FormBatch(tasks, opts)
		if err != nil {
			t.Fatalf("step %d: oracle batch: %v", step, err)
		}
		got, err := cached.FormBatch(tasks, opts)
		if err != nil {
			t.Fatalf("step %d: cached batch: %v", step, err)
		}
		for i := range tasks {
			if (want[i] == nil) != (got[i] == nil) {
				t.Fatalf("step %d task %d: solvability diverged (oracle %v, cached %v)",
					step, i, want[i] != nil, got[i] != nil)
			}
			if want[i] != nil {
				sameTeam(t, "batch", want[i], got[i])
			}
		}
		// Single-task Form must agree too (separate plan path).
		wantOne, errW := formNew(oracle, tasks[0], opts)
		gotOne, errG := formNew(cached, tasks[0], opts)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("step %d: Form err diverged: oracle %v, cached %v", step, errW, errG)
		}
		if errW == nil {
			sameTeam(t, "form", wantOne, gotOne)
		}
	}
	if st := cached.PlanCacheStats(); st.Misses < steps {
		t.Fatalf("every mutation must recompile at least one plan: %+v", st)
	}
}

// TestConstrainedInfeasibleStubEpochKeying: cached ErrInfeasible plan
// stubs (an exclusion set that starves a task skill of holders) are
// epoch-keyed like every other negative entry — a mutation retires the
// stub, the next constrained solve recompiles (and re-fails, since the
// assignment did not change), and repeats at the new epoch are served
// from the fresh stub.
func TestConstrainedInfeasibleStubEpochKeying(t *testing.T) {
	rng := rand.New(rand.NewSource(841))
	const n = 16
	g := randomTeamGraph(rng, n, 4*n, 0.25)
	u := skills.GenerateUniverse(2)
	assign := skills.NewAssignment(u, n)
	for v := 0; v < n; v++ {
		assign.MustAdd(sgraph.NodeID(v), 0)
	}
	assign.MustAdd(0, 1) // skill 1 held only by users 0 and 1
	assign.MustAdd(1, 1)
	rel := mustMatrix(compat.SPO, g)
	s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 4})
	task := skills.NewTask(0, 1)
	opts := Options{Constraints: Constraints{MustExclude: []sgraph.NodeID{0, 1}}}
	mustInfeasible := func(stage string) {
		t.Helper()
		if _, err := formNew(s, task, opts); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", stage, err)
		}
	}
	mustInfeasible("cold")
	mustInfeasible("warm")
	st := s.PlanCacheStats()
	if st.NegativeHits != 1 || st.Misses != 1 {
		t.Fatalf("pre-mutation stats %+v, want 1 negative hit / 1 miss", st)
	}
	e := teamGraphEdges(g)[0]
	if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
		t.Fatal(err)
	}
	mustInfeasible("post-mutation cold") // stale stub must not match
	mustInfeasible("post-mutation warm")
	st = s.PlanCacheStats()
	if st.Misses != 2 {
		t.Fatalf("post-mutation stats %+v, want a second miss (recompile)", st)
	}
	if st.NegativeHits != 2 {
		t.Fatalf("post-mutation stats %+v, want the fresh stub to serve the repeat", st)
	}
}

// TestConstrainedSolverMutationOracle extends the mutation oracle to
// the objective variants: constrained FormBatchSpecs and
// FormTopKDiverse on a cached solver over a mutable sharded engine,
// every post-mutation answer pinned to a fresh solver built from
// scratch on the mutated graph.
func TestConstrainedSolverMutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(851))
	const n, steps = 20, 8
	g := randomTeamGraph(rng, n, 5*n, 0.25)
	assign := randomAssignment(t, rng, n, 5)
	var specs []TaskSpec
	for i := 0; i < 3; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, TaskSpec{Task: task, Constraints: randomConstraints(rng, n)})
	}
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	rel := compat.MustNewSharded(compat.SPO, g, compat.ShardedOptions{
		ShardRows: 3, MaxResidentShards: 2, SpillDir: t.TempDir(),
	})
	defer rel.Close()
	cached := NewSolver(rel, assign, SolverOptions{Workers: 2, PlanCache: 4})

	edges := teamGraphEdges(g)
	for step := 0; step < steps; step++ {
		e := edges[(step*7)%len(edges)]
		if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		fresh := compat.MustNew(compat.SPO, rel.Graph(), compat.Options{})
		oracle := NewSolver(fresh, assign, SolverOptions{Workers: 1})
		want, err := oracle.FormBatchSpecs(specs, opts)
		if err != nil {
			t.Fatalf("step %d: oracle batch: %v", step, err)
		}
		got, err := cached.FormBatchSpecs(specs, opts)
		if err != nil {
			t.Fatalf("step %d: cached batch: %v", step, err)
		}
		for i := range specs {
			if (want[i] == nil) != (got[i] == nil) {
				t.Fatalf("step %d spec %d: solvability diverged (oracle %v, cached %v)",
					step, i, want[i] != nil, got[i] != nil)
			}
			if want[i] != nil {
				sameTeam(t, "batch-specs", want[i], got[i])
				checkConstraints(t, "batch-specs", got[i], specs[i].Constraints)
			}
		}
		// The diverse objective must track mutations too (its own plan
		// key, its own cached plans).
		dOpts := Options{Constraints: specs[0].Constraints}
		wantD, errW := oracle.FormTopKDiverseContext(context.Background(), specs[0].Task, dOpts, 3, 1.25)
		gotD, errG := cached.FormTopKDiverseContext(context.Background(), specs[0].Task, dOpts, 3, 1.25)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("step %d: diverse err diverged: oracle %v, cached %v", step, errW, errG)
		}
		if errW == nil {
			if len(wantD) != len(gotD) {
				t.Fatalf("step %d: diverse %d teams vs %d", step, len(wantD), len(gotD))
			}
			for i := range wantD {
				sameTeam(t, "diverse", wantD[i], gotD[i])
			}
		}
	}
	if st := cached.PlanCacheStats(); st.Misses < steps {
		t.Fatalf("every mutation must recompile at least one plan: %+v", st)
	}
}

// TestConstrainedFormBatchVsMutators races constrained batch solves
// against sign-flipping mutators on a cached sharded engine — a pure
// interleaving shaker for the CI race-workers job (correctness under
// mutation is the oracle test's job; here only invariants cheap enough
// to hold mid-race are asserted: no errors beyond ErrNoTeam, and every
// returned team honours its spec's constraints).
func TestConstrainedFormBatchVsMutators(t *testing.T) {
	rng := rand.New(rand.NewSource(861))
	const n = 24
	g := randomTeamGraph(rng, n, 5*n, 0.25)
	assign := randomAssignment(t, rng, n, 5)
	var specs []TaskSpec
	for i := 0; i < 4; i++ {
		task, err := skills.RandomTask(rng, assign, 2)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, TaskSpec{Task: task, Constraints: randomConstraints(rng, n)})
	}
	rel := compat.MustNewSharded(compat.SPO, g, compat.ShardedOptions{ShardRows: 1})
	defer rel.Close()
	s := NewSolver(rel, assign, SolverOptions{Workers: 4, PlanCache: 4})
	edges := teamGraphEdges(g)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e := edges[(i*2+w)%len(edges)]
				if _, err := rel.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				teams, err := s.FormBatchSpecs(specs, Options{Skill: RarestFirst, User: MinDistance})
				if err != nil {
					errc <- err
					return
				}
				for j, tm := range teams {
					if tm != nil {
						checkConstraints(t, "race-batch", tm, specs[j].Constraints)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// teamGraphEdges flattens g's edge set (u < v) for mutation picking.
func teamGraphEdges(g *sgraph.Graph) []sgraph.Edge {
	var edges []sgraph.Edge
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		g.Neighbors(u, func(v sgraph.NodeID, s sgraph.Sign) bool {
			if u < v {
				edges = append(edges, sgraph.Edge{U: u, V: v, Sign: s})
			}
			return true
		})
	}
	return edges
}
