// Algorithm 2's outer loop: the bounded seed loop behind every
// single-team solve, and the seed screen that drops seeds which
// cannot beat the bound.

package team

import (
	"context"
	"fmt"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

// FormIntoContext solves the plan into dst, reusing dst.Members'
// backing array — the warm path for serving repeated queries. Seeds
// are tried in order by formSeq's bounded loop on the calling
// goroutine, at every worker count, so the result and the allocation
// profile do not depend on the solver's workers: on a packed engine,
// warm calls are allocation-free. The seed loop checks ctx once per
// seed and aborts with ErrDeadlineExceeded or ErrCanceled, leaving
// scratch pooled and reusable. It returns ErrNoTeam when every seed
// fails.
//
//tfsn:noalloc
func (p *TaskPlan) FormIntoContext(ctx context.Context, dst *Team) error {
	if p.empty {
		*dst = Team{Members: dst.Members[:0]}
		return nil
	}
	sc := p.s.getScratch()
	defer p.s.putScratch(sc)
	return p.formSeq(ctx, sc, dst)
}

// formSeq is the one solve loop: Algorithm 2's outer loop on one
// scratch, branch-and-bound. It keeps the cheapest team (first seed
// wins ties, as the loop order dictates) in sc.best and copies it into
// dst at the end. Once a team is priced, its cost bounds every later
// seed's grow, which abandons the seed as soon as its partial cost
// reaches it: costs only grow as members join and a later seed must be
// strictly cheaper to win, so the abandoned growth could never have
// won, and a seed that could win makes the identical picks (every
// pick's score lies below the budget). SeedsSucceeded therefore counts
// the seeds that set a new best team. Under RandomUser an abandoned
// seed still grows in full, unpriced (see join), so Options.Rng is
// consumed exactly as in a full growth of every seed.
//
// A small bound also screens each seed before it joins (canBeat): a
// seed that has some task skill held by no node within bound−1 hops
// cannot price below bound, so it is dropped without a grow. It would
// have been abandoned anyway, so the answer and SeedsSucceeded do not
// change. RandomUser seeds are never screened, since each must draw
// from Options.Rng.
//
// The context is checked once per seed — cooperative cancellation at
// the granularity of one grow-and-price step. The body allocates only
// on the all-seeds-failed error path; warm wins reuse sc.best and
// dst.Members in place.
//
//tfsn:noalloc
//tfsn:ctxpoll
func (p *TaskPlan) formSeq(ctx context.Context, sc *scratch, dst *Team) error {
	if p.empty {
		*dst = Team{Members: dst.Members[:0]}
		return nil
	}
	bestCost := int32(noBound)
	succeeded := 0
	sc.best = sc.best[:0]
	sc.reach = nil
	screen := p.opts.User != RandomUser
	for _, seed := range p.seeds {
		if err := ctx.Err(); err != nil {
			return ctxErr(err)
		}
		if screen && bestCost <= screenBound && !p.canBeat(sc, seed, bestCost) {
			continue // it cannot price below bestCost
		}
		cost, ok, err := p.grow(sc, seed, bestCost)
		if err != nil {
			return err
		}
		if !ok {
			continue // failed, or abandoned: it cannot beat bestCost
		}
		bestCost = cost
		succeeded++
		sc.best = append(sc.best[:0], sc.members...)
	}
	if succeeded == 0 {
		//tfsn:allow-alloc(terminal error path: every seed failed, no team to return)
		return &seedsFailedError{seeds: len(p.seeds), task: p.task}
	}
	dst.Members = append(dst.Members[:0], sc.best...)
	dst.Cost = bestCost
	dst.SeedsTried = len(p.seeds)
	dst.SeedsSucceeded = succeeded
	return nil
}

// screenBound is the largest bound canBeat screens at. Its reach
// index covers radii 1 and 2, so bounds up to 3.
const screenBound = 3

// canBeat is the seed screen: it reports false only when seed cannot
// grow a team priced below bound, for 0 < bound ≤ screenBound. Both
// costs are at least the distance from the seed to every other member,
// and a relation distance, the length of a path in the graph, is at
// least the unsigned hop distance. Every member of a team priced below
// bound therefore lies within bound−1 hops of the seed, and together
// the members hold every task skill. At bound 1 the seed alone must
// hold them; at bounds 2 and 3 the task's skill bits must lie inside
// the seed's reach at radius bound−1. A bound ≤ 0 admits no team.
//
//tfsn:noalloc
func (p *TaskPlan) canBeat(sc *scratch, seed sgraph.NodeID, bound int32) bool {
	switch {
	case bound <= 0:
		return false
	case bound == 1:
		for i := range p.task {
			if !p.holds(i, seed) {
				return false
			}
		}
		return true
	}
	if sc.reach == nil {
		sc.reach = p.s.assign.Reach(p.s.rel.Graph())
		w := (p.s.assign.Universe().Len() + 63) / 64
		if cap(sc.taskWords) < w {
			//tfsn:allow-alloc(amortised growth of the pooled scratch to the universe width)
			sc.taskWords = make([]uint64, w)
		}
		sc.taskWords = sc.taskWords[:w]
		clear(sc.taskWords)
		for _, sk := range p.task {
			sc.taskWords[sk>>6] |= 1 << uint(sk&63)
		}
	}
	within := sc.reach.Within(seed, int(bound-1))
	for i, w := range sc.taskWords {
		if w&^within[i] != 0 {
			return false
		}
	}
	return true
}

// seedsFailedError is the ErrNoTeam of a solve in which every seed
// failed. The message is formatted only when read, because batch
// solves discard the error.
type seedsFailedError struct {
	seeds int
	task  skills.Task
}

func (e *seedsFailedError) Error() string {
	return fmt.Sprintf("%v: all %d seeds failed for task %v", ErrNoTeam, e.seeds, e.task)
}

func (e *seedsFailedError) Unwrap() error { return ErrNoTeam }
