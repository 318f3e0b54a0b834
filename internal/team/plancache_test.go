package team

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compat"
	"repro/internal/skills"
)

// TestPlanCacheServesIdenticalResults: a cached solver must return
// exactly the teams an uncached solver returns, on every engine and
// cacheable policy combination, while actually serving repeats from
// the cache (hits grow, misses stay at one per distinct key).
func TestPlanCacheServesIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 3; trial++ {
		n := 14 + rng.Intn(14)
		g := randomTeamGraph(rng, n, 4*n, 0.25)
		assign := randomAssignment(t, rng, n, 6)
		var tasks []skills.Task
		for i := 0; i < 4; i++ {
			task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		for _, k := range []compat.Kind{compat.SPM, compat.NNE} {
			engines, cleanup := solverEngines(k, g)
			for engine, rel := range engines {
				for _, opts := range []Options{
					{Skill: LeastCompatibleFirst, User: MinDistance},
					{Skill: RarestFirst, User: MostCompatible, Cost: SumDistance},
				} {
					plain := NewSolver(rel, assign, SolverOptions{Workers: 1})
					cached := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 8})
					const rounds = 3
					solvable := 0
					for round := 0; round < rounds; round++ {
						for _, task := range tasks {
							want, wantErr := formNew(plain, task, opts)
							got, gotErr := formNew(cached, task, opts)
							if (wantErr == nil) != (gotErr == nil) {
								t.Fatalf("%s: plain err=%v cached err=%v", engine, wantErr, gotErr)
							}
							if wantErr != nil {
								if !errors.Is(gotErr, ErrNoTeam) {
									t.Fatalf("%s: unexpected error %v", engine, gotErr)
								}
								continue
							}
							solvable++
							sameTeam(t, engine+"/cached", want, got)
						}
					}
					stats := cached.PlanCacheStats()
					if stats.Capacity != 8 {
						t.Fatalf("%s: capacity = %d, want 8", engine, stats.Capacity)
					}
					if solvable > len(tasks) && stats.Hits == 0 {
						t.Fatalf("%s: no cache hits over %d repeated rounds (stats %+v)", engine, rounds, stats)
					}
					// Every distinct solvable task compiles exactly once;
					// plan-time ErrNoTeam tasks recompile per round.
					if stats.Misses > int64(rounds*len(tasks)) {
						t.Fatalf("%s: misses = %d out of %d solves", engine, stats.Misses, rounds*len(tasks))
					}
					if stats.Size > stats.Capacity {
						t.Fatalf("%s: size %d exceeds capacity %d", engine, stats.Size, stats.Capacity)
					}
				}
			}
			cleanup()
		}
	}
}

// TestPlanCacheCanonicalKeying: a task in any order (with duplicates)
// must hit the entry its canonical form created, while any change to
// the options fingerprint must miss.
func TestPlanCacheCanonicalKeying(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1, PlanCache: 4})
	base := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	if _, err := formNew(s, skills.NewTask(0, 1, 2), base); err != nil {
		t.Fatal(err)
	}
	if got := s.PlanCacheStats(); got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("after first solve: %+v", got)
	}
	// Same key, scrambled and duplicated input: a hit.
	if _, err := formNew(s, skills.Task{2, 0, 1, 0, 2}, base); err != nil {
		t.Fatal(err)
	}
	if got := s.PlanCacheStats(); got.Misses != 1 || got.Hits != 1 {
		t.Fatalf("after scrambled repeat: %+v", got)
	}
	// Each fingerprint field is part of the key.
	variants := []Options{
		{Skill: RarestFirst, User: MinDistance},
		{Skill: LeastCompatibleFirst, User: MostCompatible},
		{Skill: LeastCompatibleFirst, User: MinDistance, Cost: SumDistance},
		{Skill: LeastCompatibleFirst, User: MinDistance, MaxSeeds: 1},
	}
	for i, opts := range variants {
		if _, err := formNew(s, skills.NewTask(0, 1, 2), opts); err != nil {
			t.Fatal(err)
		}
		if got := s.PlanCacheStats(); got.Misses != int64(2+i) {
			t.Fatalf("variant %d did not miss: %+v", i, got)
		}
	}
}

// TestPlanCacheEviction: with a capacity of 2 and three tasks cycled
// round-robin, the LRU must evict, stay within its bound, and keep
// serving correct teams after recompiling evicted plans.
func TestPlanCacheEviction(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	tasks := []skills.Task{
		skills.NewTask(0, 1),
		skills.NewTask(1, 2),
		skills.NewTask(0, 1, 2),
	}
	plain := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
	want := make([]*Team, len(tasks))
	for i, task := range tasks {
		tm, err := formNew(plain, task, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tm
	}
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1, PlanCache: 2})
	for round := 0; round < 4; round++ {
		for i, task := range tasks {
			got, err := formNew(s, task, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameTeam(t, "evicted-recompile", want[i], got)
		}
	}
	stats := s.PlanCacheStats()
	if stats.Evictions == 0 {
		t.Fatalf("3 tasks through a 2-plan cache evicted nothing: %+v", stats)
	}
	if stats.Size > 2 {
		t.Fatalf("size %d exceeds capacity 2", stats.Size)
	}
	// Round-robin over 3 keys with capacity 2 thrashes: every solve
	// after the first round still misses (the classic LRU worst case),
	// so evictions keep pace with misses.
	if stats.Hits != 0 {
		t.Fatalf("round-robin thrash should never hit: %+v", stats)
	}
	// An LRU-friendly access pattern on the same solver still hits.
	for i := 0; i < 3; i++ {
		if _, err := formNew(s, tasks[0], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.PlanCacheStats(); got.Hits < 2 {
		t.Fatalf("repeated single task should hit: %+v", got)
	}
}

// TestPlanCacheRandomUserBypass: RandomUser queries must not touch the
// cache (no counters move) and must keep consuming the caller's Rng in
// the sequential order.
func TestPlanCacheRandomUserBypass(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1, PlanCache: 4})
	want, err := form(rel, f.assign, f.task, Options{User: RandomUser, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	got, err := formNew(s, f.task, Options{User: RandomUser, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	sameTeam(t, "random-bypass", want, got)
	if stats := s.PlanCacheStats(); stats.Hits != 0 || stats.Misses != 0 {
		t.Fatalf("RandomUser moved cache counters: %+v", stats)
	}
}

// TestPlanCacheConcurrentMixed hammers one cached solver from many
// goroutines with an overlapping task mix whose distinct-key count
// exceeds the capacity, so hits, misses and evictions all interleave —
// the CI race-workers job runs this under the race detector. Every
// result must equal the sequential single-worker answer.
func TestPlanCacheConcurrentMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	n := 28
	g := randomTeamGraph(rng, n, 5*n, 0.25)
	assign := randomAssignment(t, rng, n, 6)
	var tasks []skills.Task
	for i := 0; i < 6; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	rel := mustMatrix(compat.SPM, g)
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	plain := NewSolver(rel, assign, SolverOptions{Workers: 1})
	want := make([]*Team, len(tasks))
	for i, task := range tasks {
		tm, err := formNew(plain, task, opts)
		if err != nil && !errors.Is(err, ErrNoTeam) {
			t.Fatal(err)
		}
		want[i] = tm // nil when unsolvable
	}
	// Capacity 3 for 6 distinct keys: concurrent misses race to insert
	// and evict while hits serve shared plans.
	s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 3})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			var tm Team
			for iter := 0; iter < 40; iter++ {
				i := local.Intn(len(tasks))
				var (
					got *Team
					err error
				)
				if iter%2 == 0 {
					got, err = formNew(s, tasks[i], opts)
				} else {
					err = s.FormIntoContext(context.Background(), tasks[i], opts, &tm)
					got = &tm
				}
				if err != nil {
					if errors.Is(err, ErrNoTeam) && want[i] == nil {
						continue
					}
					errs <- err
					return
				}
				w := want[i]
				if w == nil || w.Cost != got.Cost || len(w.Members) != len(got.Members) {
					errs <- errors.New("concurrent cached solve diverged from sequential answer")
					return
				}
				for j := range w.Members {
					if w.Members[j] != got.Members[j] {
						errs <- errors.New("concurrent cached solve returned different members")
						return
					}
				}
			}
		}(int64(300 + gi))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := s.PlanCacheStats()
	if stats.Hits == 0 || stats.Misses == 0 || stats.Evictions == 0 {
		t.Fatalf("mixed workload should exercise hits, misses and evictions: %+v", stats)
	}
	if stats.Size > stats.Capacity {
		t.Fatalf("size %d exceeds capacity %d", stats.Size, stats.Capacity)
	}
}

// TestPlanCacheWarmHitDoesNotAllocate: the acceptance criterion of the
// serving layer — a warm Solver.FormInto whose plan comes from the
// cache must perform zero allocations on the matrix engine. (The CI
// alloc smoke asserts the same via BenchmarkPlanCacheServe/warm.)
func TestPlanCacheWarmHitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI alloc smoke covers this")
	}
	rng := rand.New(rand.NewSource(229))
	n := 48
	g := randomTeamGraph(rng, n, 6*n, 0.2)
	assign := randomAssignment(t, rng, n, 8)
	task, err := skills.RandomTask(rng, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel := mustMatrix(compat.SPM, g)
	s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 8})
	for _, opts := range []Options{
		{Skill: LeastCompatibleFirst, User: MinDistance},
		{Skill: RarestFirst, User: MostCompatible},
	} {
		var tm Team
		if err := s.FormIntoContext(context.Background(), task, opts, &tm); err != nil {
			if errors.Is(err, ErrNoTeam) {
				continue
			}
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.FormIntoContext(context.Background(), task, opts, &tm); err != nil {
				t.Fatal(err)
			}
		})
		// A GC mid-run can empty the scratch pool and force one refill;
		// anything beyond that is a real warm-path allocation.
		if allocs > 0.5 {
			t.Fatalf("%v/%v: warm cached FormInto allocates %.1f allocs/op, want 0", opts.Skill, opts.User, allocs)
		}
	}
	if stats := s.PlanCacheStats(); stats.Hits == 0 {
		t.Fatalf("warm loop never hit the cache: %+v", stats)
	}
}

// TestPickMinDistanceMatchesPairwise is the dedicated property test
// for the packed distance-row rewrite of pickMinDistance: under the
// MinDistance policy — the one that exercises the row scan — the
// solver must match the naive per-pair oracle (referenceForm queries
// Distance pair by pair, exactly like the pre-rewrite picker) for
// every skill policy × cost × engine on random instances.
func TestPickMinDistanceMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	kinds := []compat.Kind{compat.SPA, compat.SPM, compat.SPO, compat.SBPH, compat.NNE}
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(24)
		g := randomTeamGraph(rng, n, 4*n, 0.3)
		assign := randomAssignment(t, rng, n, 6)
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kinds {
			engines, cleanup := solverEngines(k, g)
			for engine, rel := range engines {
				for _, sp := range []SkillPolicy{RarestFirst, LeastCompatibleFirst} {
					for _, ck := range []CostKind{Diameter, SumDistance} {
						opts := Options{Skill: sp, User: MinDistance, Cost: ck}
						label := engine + "/" + sp.String() + "/" + ck.String()
						want, wantErr := referenceForm(rel, assign, task, opts)
						s := NewSolver(rel, assign, SolverOptions{Workers: 1})
						got, gotErr := formNew(s, task, opts)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: oracle err=%v solver err=%v", label, wantErr, gotErr)
						}
						if wantErr != nil {
							continue
						}
						sameTeam(t, label, want, got)
					}
				}
			}
			cleanup()
		}
	}
}
