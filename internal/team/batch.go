// Batch formation: one team per task, the tasks spread over the
// solver's worker pool.

package team

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/container"
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
// The tasks run on container.ParallelFor at the solver's worker count
// (one worker, in index order, for RandomUser). The workers' pooled
// scratches are taken before the run and returned after it, both on
// the calling goroutine; taking each on its worker goroutine instead
// cost tfsnbench batch-unique 4% more CPU per Workers=1 chunk.
// The context is checked before every task, so a firing deadline stops
// every worker at its next task with the typed context error, and
// several failures report the lowest-indexed task's, as
// "team: batch task i: …".
//
//tfsn:ctxpoll
func (s *Solver) formBatch(ctx context.Context, count int, opts Options, at func(i int) (skills.Task, Options)) ([]*Team, error) {
	out := make([]*Team, count)
	workers := s.workers
	if opts.User == RandomUser {
		workers = 1
	}
	scratches := make([]*scratch, min(workers, count))
	//tfsn:ctxfree(takes one pooled scratch per worker)
	for w := range scratches {
		scratches[w] = s.getScratch()
	}
	err := container.ParallelFor(count, workers, func(w, i int) error {
		err := ctx.Err()
		if err != nil {
			err = ctxErr(err)
		} else {
			task, o := at(i)
			out[i], err = s.formOne(ctx, scratches[w], task, o)
		}
		if err != nil {
			return fmt.Errorf("team: batch task %d: %w", i, err)
		}
		return nil
	})
	//tfsn:ctxfree(returns one scratch per worker to the pool)
	for _, sc := range scratches {
		s.putScratch(sc)
	}
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
