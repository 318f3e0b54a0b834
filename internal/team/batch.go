// Batch formation: one team per task, the tasks spread over the
// solver's worker pool.

package team

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/skills"
)

// FormBatch forms one team per task, amortising the solver's scratch
// across the slice and running tasks across the worker pool (each
// worker solves whole tasks with its own scratch, so per-task results
// are identical to FormIntoContext at any worker count). teams[i] is
// nil when no compatible team exists for tasks[i] (ErrNoTeam); any
// other error aborts the batch, reporting the lowest-indexed failure.
// The RandomUser policy runs the batch on one worker, which takes the
// tasks in index order, so the shared Options.Rng is consumed exactly
// as a sequential FormIntoContext loop would.
func (s *Solver) FormBatch(tasks []skills.Task, opts Options) ([]*Team, error) {
	return s.FormBatchContext(context.Background(), tasks, opts)
}

// FormBatchContext is FormBatch bounded by ctx: the context is checked
// once per task (and per worker-pool item), so an expiring deadline
// aborts the batch at the next task boundary with ErrDeadlineExceeded
// (or ErrCanceled) wrapped in the lowest-indexed unfinished task's
// batch error. Tasks already solved are discarded with the batch —
// coalescing layers that need partial results should bound their
// windows instead. The solver remains fully reusable after an abort.
func (s *Solver) FormBatchContext(ctx context.Context, tasks []skills.Task, opts Options) ([]*Team, error) {
	return s.formBatch(ctx, len(tasks), opts, func(i int) (skills.Task, Options) {
		return tasks[i], opts
	})
}

// TaskSpec is one FormBatchSpecs element: a task with its own
// constraints.
type TaskSpec struct {
	Task skills.Task
	// Constraints replaces the batch Options.Constraints verbatim for
	// this task (the zero value solves unconstrained, even when the
	// batch options carry constraints).
	Constraints Constraints
}

// FormBatchSpecs is FormBatch with per-task constraints: coalescing
// layers that batch same-options requests can keep merging even when
// the callers constrain differently. Everything else — worker pool,
// nil teams for ErrNoTeam (and ErrInfeasible), error reporting —
// matches FormBatch; each spec's Constraints replaces opts.Constraints
// for that task.
func (s *Solver) FormBatchSpecs(specs []TaskSpec, opts Options) ([]*Team, error) {
	return s.formBatch(context.Background(), len(specs), opts, func(i int) (skills.Task, Options) {
		o := opts
		o.Constraints = specs[i].Constraints
		return specs[i].Task, o
	})
}

// formBatch is the one batch implementation behind FormBatchContext
// and FormBatchSpecs: at(i) yields task i with its per-task
// options (the batch options with, possibly, per-spec constraints).
//
//tfsn:ctxpoll
func (s *Solver) formBatch(ctx context.Context, count int, opts Options, at func(i int) (skills.Task, Options)) ([]*Team, error) {
	out := make([]*Team, count)
	workers := s.workers
	if opts.User == RandomUser {
		workers = 1
	}
	workers = min(workers, count)
	err := s.runPool(ctx, workers, count, func(sc *scratch, i int) error {
		task, o := at(i)
		tm, err := s.formOne(ctx, sc, task, o)
		if err != nil {
			return err
		}
		out[i] = tm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// formOne is one batch element: plan + sequential solve on the
// worker's scratch, with ErrNoTeam mapped to a nil team.
func (s *Solver) formOne(ctx context.Context, sc *scratch, task skills.Task, opts Options) (*Team, error) {
	p, err := s.planFor(ctx, task, opts, sc)
	if err != nil {
		if errors.Is(err, ErrNoTeam) {
			return nil, nil
		}
		return nil, err
	}
	var tm Team
	if err := p.formSeq(ctx, sc, &tm); err != nil {
		if errors.Is(err, ErrNoTeam) {
			return nil, nil
		}
		return nil, err
	}
	return &tm, nil
}

// runPool is the worker pool behind FormBatch, the solver's one
// parallel path: it runs fn(sc, i) for every i in [0, count) across
// the given number of workers (at most count, which its caller
// ensures), handing out indices from a shared atomic counter, with one
// scratch per worker; one worker takes the items in index order. The
// first error aborts the sweep; when several workers error, the
// lowest-indexed item's error is returned as "team: batch task i: …",
// so error reporting is deterministic. The context is checked before
// every item, so a firing deadline stops all workers at their next
// item boundary with the typed context error.
//
//tfsn:ctxpoll
func (s *Solver) runPool(ctx context.Context, workers, count int, fn func(sc *scratch, i int) error) error {
	var (
		next     int64 = -1
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		errIdx   = count
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.getScratch()
			defer s.putScratch(sc)
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= count {
					break
				}
				err := ctx.Err()
				if err != nil {
					err = ctxErr(err)
				} else {
					err = fn(sc, i)
				}
				if err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = fmt.Errorf("team: batch task %d: %w", i, err), i
					}
					mu.Unlock()
					failed.Store(true)
					break
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
