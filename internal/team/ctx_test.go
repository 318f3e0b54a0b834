// Context-aware solve tests: typed deadline/cancel errors, cooperative
// abort points mid-batch and mid-seed-loop, and — the serving-critical
// property — that an aborted solve never poisons the solver's pooled
// scratch or cached plans for the next request. The mid-solve tests
// inject cancellation deterministically through cancelAfterRel, a
// relation wrapper that fires a context cancel after a fixed number of
// relation queries.

package team

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// cancelAfterRel wraps a relation and invokes fire() once, after the
// wrapped relation has answered `after` queries (Compatible and
// Distance both count). It injects a cancellation at an exact point of
// the solve, making mid-solve abort tests deterministic.
type cancelAfterRel struct {
	compat.Relation
	mu    sync.Mutex
	after int
	calls int
	fire  func()
}

func (r *cancelAfterRel) tick() {
	r.mu.Lock()
	r.calls++
	hit := r.calls == r.after
	r.mu.Unlock()
	if hit {
		r.fire()
	}
}

func (r *cancelAfterRel) Compatible(u, v sgraph.NodeID) (bool, error) {
	r.tick()
	return r.Relation.Compatible(u, v)
}

func (r *cancelAfterRel) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	r.tick()
	return r.Relation.Distance(u, v)
}

func TestFormContextAlreadyCanceled(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var tm Team
	if err := s.FormIntoContext(ctx, f.task, Options{}, &tm); !errors.Is(err, ErrCanceled) {
		t.Fatalf("FormIntoContext: got %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v must also wrap context.Canceled", err)
	}
	if _, err := s.FormTopKContext(ctx, f.task, Options{}, 3); !errors.Is(err, ErrCanceled) {
		t.Fatalf("FormTopKContext: got %v, want ErrCanceled", err)
	}
	if _, err := s.FormBatchContext(ctx, []skills.Task{f.task}, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("FormBatchContext: got %v, want ErrCanceled", err)
	}
	if _, err := s.FormTopKDiverseContext(ctx, f.task, Options{}, 3, 0.5); !errors.Is(err, ErrCanceled) {
		t.Fatalf("FormTopKDiverseContext: got %v, want ErrCanceled", err)
	}
}

func TestFormContextExpiredDeadline(t *testing.T) {
	f := newFixture(t)
	rel := nne(t, f.g)
	s := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var tm Team
	err := s.FormIntoContext(ctx, f.task, Options{}, &tm)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v must also wrap context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrNoTeam) {
		t.Fatalf("a deadline abort must not look like ErrNoTeam: %v", err)
	}
	// A Background solve on the same solver still works: the abort
	// left scratch and plans intact.
	if _, err := formNew(s, f.task, Options{}); err != nil {
		t.Fatalf("solve after deadline abort: %v", err)
	}
}

// TestCancelMidSolveDoesNotPoisonScratch fires the cancel in the
// middle of a grown seed (via the relation wrapper) on a single-worker
// solver, then checks the very next solve on the same solver — same
// pooled scratch — matches a fresh solver exactly.
func TestCancelMidSolveDoesNotPoisonScratch(t *testing.T) {
	f := newFixture(t)
	base := nne(t, f.g)
	for _, after := range []int{1, 3, 7, 15} {
		ctx, cancel := context.WithCancel(context.Background())
		rel := &cancelAfterRel{Relation: base, after: after, fire: cancel}
		s := NewSolver(rel, f.assign, SolverOptions{Workers: 1})
		var tm Team
		err := s.FormIntoContext(ctx, f.task, Options{}, &tm)
		// Depending on where the cancel lands the solve may abort or
		// (if it fired after the last seed check) still succeed; both
		// are fine — what matters is the next request.
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("after=%d: got %v, want ErrCanceled or success", after, err)
		}
		cancel()
		want, err := form(base, f.assign, f.task, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := formNew(s, f.task, Options{})
		if err != nil {
			t.Fatalf("after=%d: solve after mid-solve abort: %v", after, err)
		}
		sameTeam(t, "post-abort reuse", want, got)
	}
}

// TestDeadlineMidBatch cancels while FormBatchContext is in flight (on
// both the sequential and the pooled path) and checks the batch
// reports the typed error and the solver solves the same batch
// correctly afterwards.
func TestDeadlineMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n := 24
	g := randomTeamGraph(rng, n, 4*n, 0.2)
	assign := randomAssignment(t, rng, n, 6)
	var tasks []skills.Task
	for i := 0; i < 30; i++ {
		task, err := skills.RandomTask(rng, assign, 2+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	base := compat.MustNew(compat.NNE, g, compat.Options{})
	opts := Options{Skill: LeastCompatibleFirst, User: MinDistance}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rel := &cancelAfterRel{Relation: base, after: 50, fire: cancel}
		s := NewSolver(rel, assign, SolverOptions{Workers: workers})
		_, err := s.FormBatchContext(ctx, tasks, opts)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: mid-batch cancel: got %v, want ErrCanceled", workers, err)
		}
		cancel()
		// The same solver must now solve the full batch, identically
		// to an untouched solver.
		want, err := NewSolver(base, assign, SolverOptions{Workers: 1}).FormBatch(tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.FormBatch(tasks, opts)
		if err != nil {
			t.Fatalf("workers=%d: batch after abort: %v", workers, err)
		}
		for i := range want {
			if (want[i] == nil) != (got[i] == nil) {
				t.Fatalf("workers=%d task %d: nil mismatch", workers, i)
			}
			if want[i] != nil {
				sameTeam(t, "post-abort batch", want[i], got[i])
			}
		}
	}
}

// TestConcurrentCancelAndSolve interleaves canceled and healthy solves
// on one shared solver — the drain/cancel interleaving the serving
// daemon produces, run under -race in CI.
func TestConcurrentCancelAndSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 20
	g := randomTeamGraph(rng, n, 3*n, 0.2)
	assign := randomAssignment(t, rng, n, 5)
	rel := mustMatrix(compat.NNE, g)
	s := NewSolver(rel, assign, SolverOptions{Workers: 2, PlanCache: 16})
	opts := Options{Skill: RarestFirst, User: MinDistance}
	var tasks []skills.Task
	for i := 0; i < 8; i++ {
		task, err := skills.RandomTask(rng, assign, 2)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				task := tasks[(w+i)%len(tasks)]
				if w%2 == 0 {
					ctx, cancel := context.WithCancel(context.Background())
					if i%2 == 0 {
						cancel()
					}
					var tm Team
					err := s.FormIntoContext(ctx, task, opts, &tm)
					if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrNoTeam) {
						t.Errorf("worker %d: %v", w, err)
					}
					cancel()
				} else {
					if _, err := formNew(s, task, opts); err != nil && !errors.Is(err, ErrNoTeam) {
						t.Errorf("worker %d: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNegativePlanCache: a task with a holderless skill is plan-time
// infeasible; with a plan cache the second request must be served from
// a negative entry (NegativeHits) without recompiling, and the error
// must stay ErrNoTeam through Form, FormBatch and the facade paths.
func TestNegativePlanCache(t *testing.T) {
	g := sgraph.MustFromEdges(3, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
	})
	u, err := skills.NewUniverse([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	assign := skills.NewAssignment(u, 3)
	assign.MustAdd(0, 0) // A
	assign.MustAdd(1, 1) // B
	// Skill C (id 2) has no holders.
	rel := nne(t, g)
	s := NewSolver(rel, assign, SolverOptions{Workers: 1, PlanCache: 4})
	infeasible := skills.NewTask(0, 2)
	feasible := skills.NewTask(0, 1)

	for round := 0; round < 3; round++ {
		if _, err := formNew(s, infeasible, Options{}); !errors.Is(err, ErrNoTeam) {
			t.Fatalf("round %d: got %v, want ErrNoTeam", round, err)
		}
	}
	st := s.PlanCacheStats()
	if st.NegativeHits != 2 {
		t.Fatalf("NegativeHits = %d, want 2 (stats %+v)", st.NegativeHits, st)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 — the infeasible task must compile once (stats %+v)", st.Misses, st)
	}
	if st.Size != 1 {
		t.Fatalf("Size = %d, want the negative entry cached (stats %+v)", st.Size, st)
	}

	// A permuted spelling of the same infeasible task hits the same
	// negative entry (canonical keying applies to negatives too).
	if _, err := formNew(s, skills.Task{2, 0, 2}, Options{}); !errors.Is(err, ErrNoTeam) {
		t.Fatalf("permuted spelling: got %v, want ErrNoTeam", err)
	}
	if st := s.PlanCacheStats(); st.NegativeHits != 3 {
		t.Fatalf("permuted spelling NegativeHits = %d, want 3", st.NegativeHits)
	}

	// Batch semantics are unchanged: infeasible tasks map to nil teams
	// (served from the negative entry), feasible ones still solve.
	teams, err := s.FormBatch([]skills.Task{infeasible, feasible, infeasible}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if teams[0] != nil || teams[2] != nil {
		t.Fatalf("infeasible batch tasks must be nil, got %v / %v", teams[0], teams[2])
	}
	if teams[1] == nil {
		t.Fatal("feasible batch task must solve")
	}

	// Solve-time ErrNoTeam (all seeds fail) is NOT a negative entry:
	// its plan is compiled, cached positively, and re-solved each time.
	gNeg := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Negative}})
	aNeg := skills.NewAssignment(u, 2)
	aNeg.MustAdd(0, 0)
	aNeg.MustAdd(1, 1)
	sNeg := NewSolver(nne(t, gNeg), aNeg, SolverOptions{Workers: 1, PlanCache: 4})
	for round := 0; round < 2; round++ {
		if _, err := formNew(sNeg, skills.NewTask(0, 1), Options{}); !errors.Is(err, ErrNoTeam) {
			t.Fatalf("round %d: got %v, want ErrNoTeam", round, err)
		}
	}
	if st := sNeg.PlanCacheStats(); st.NegativeHits != 0 || st.Hits != 1 {
		t.Fatalf("solve-time ErrNoTeam must cache a positive plan: %+v", st)
	}
}

// TestNegativePlanCacheEvicts: negative entries live under the same
// LRU bound as positive plans and evict normally.
func TestNegativePlanCacheEvicts(t *testing.T) {
	g := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Positive}})
	u, err := skills.NewUniverse([]string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	assign := skills.NewAssignment(u, 2)
	assign.MustAdd(0, 0)
	assign.MustAdd(1, 1)
	// Skills C and D are holderless: two distinct infeasible tasks.
	s := NewSolver(nne(t, g), assign, SolverOptions{Workers: 1, PlanCache: 1})
	if _, err := formNew(s, skills.NewTask(0, 2), Options{}); !errors.Is(err, ErrNoTeam) {
		t.Fatalf("got %v, want ErrNoTeam", err)
	}
	if _, err := formNew(s, skills.NewTask(0, 3), Options{}); !errors.Is(err, ErrNoTeam) {
		t.Fatalf("got %v, want ErrNoTeam", err)
	}
	st := s.PlanCacheStats()
	if st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("negative entries must share the LRU bound: %+v", st)
	}
}
