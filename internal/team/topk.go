// Top-K team selection, plain and diverse: the one routine behind
// FormTopKContext and FormTopKDiverseContext. The candidate list is
// Algorithm 2's list L, the distinct grown teams in cost order, as
// topKSeq's bounded seed loop collects it. Plain top-K (lambda = 0)
// returns its first k. The diverse variant, in the spirit of Gajewar &
// Das Sarma's density objectives, selects greedily by score = cost +
// lambda·maxOverlap instead, where maxOverlap is the largest Jaccard
// similarity between a candidate's member set and any already-selected
// team. Member sets are packed into row-width bitsets so each Jaccard
// is one word-parallel AND/popcount pass (kernels.AndCount via
// container.AndCount) — the penalty is near-free next to the solve
// itself. The greedy scan at lambda = 0 would select the same cost
// order (ties resolve to the earlier, cost-sorted candidate), so that
// case skips the packing and truncates.

package team

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/container"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

// validateTopKDiverse rejects the parameter space both entry layers
// (solver and plan) refuse identically. Infinite lambdas are refused
// like NaN: cost + Inf·0 is NaN, so the strict-less selection would
// never move off the first candidate and silently return cost order.
func validateTopKDiverse(k int, lambda float64) error {
	if k <= 0 {
		return fmt.Errorf("team: top-K k = %d, want > 0", k)
	}
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return fmt.Errorf("team: top-K lambda = %v, want a finite number >= 0", lambda)
	}
	return nil
}

// FormTopKDiverseContext returns up to k distinct teams selected
// greedily by cost + lambda·maxOverlap(Jaccard) against the
// already-selected teams: the first team is always the cheapest, each
// subsequent pick trades cost against member overlap with everything
// selected so far. Results are in selection order (not cost order).
// lambda = 0 is FormTopKContext; larger lambdas pay more cost for
// less overlap. Constraints on opts apply as everywhere else, and the
// aggregate SeedsTried/SeedsSucceeded stamping matches
// FormTopKContext. The context is checked once per seed and once per
// greedy pick.
func (s *Solver) FormTopKDiverseContext(ctx context.Context, task skills.Task, opts Options, k int, lambda float64) ([]*Team, error) {
	if err := validateTopKDiverse(k, lambda); err != nil {
		return nil, err
	}
	// The lambda is part of the query: stamping it on the options puts
	// it in the plan-cache fingerprint, so differently-weighted queries
	// never share a cache slot with each other or with plain top-K.
	opts.DiverseLambda = lambda
	p, err := s.planFor(ctx, task, opts, nil)
	if err != nil {
		return nil, err
	}
	return p.FormTopKDiverseContext(ctx, k, lambda)
}

// FormTopKDiverseContext solves the plan under the top-K objective
// (see Solver.FormTopKDiverseContext).
func (p *TaskPlan) FormTopKDiverseContext(ctx context.Context, k int, lambda float64) ([]*Team, error) {
	if err := validateTopKDiverse(k, lambda); err != nil {
		return nil, err
	}
	if p.empty {
		return []*Team{{Members: nil, Cost: 0}}, nil
	}
	sc := p.s.getScratch()
	defer p.s.putScratch(sc)
	distinct, keys, succeeded, err := p.topKSeq(ctx, sc, k, lambda)
	if err != nil {
		return nil, err
	}
	k = min(k, len(distinct))
	selected := distinct[:k]
	if lambda > 0 {
		if selected, err = selectDiverse(ctx, distinct, keys, k, lambda, p.s.n); err != nil {
			return nil, err
		}
	}
	//tfsn:ctxfree(stamping k already-selected teams; bounded and allocation-free)
	for _, tm := range selected {
		tm.SeedsTried = len(p.seeds)
		tm.SeedsSucceeded = succeeded
	}
	return selected, nil
}

// selectDiverse is the greedy selection of k of the cost-sorted
// distinct teams (keys holds their sorted member sets) by
// cost + lambda·maxOverlap, over member sets packed to the width of
// an n-node row.
//
//tfsn:ctxpoll
func selectDiverse(ctx context.Context, distinct []*Team, keys [][]sgraph.NodeID, k int, lambda float64, n int) ([]*Team, error) {
	// Pack each candidate's member set to row width so the Jaccard
	// intersections below are word-parallel.
	words := (n + 63) / 64
	sets := make([][]uint64, len(distinct))
	//tfsn:ctxfree(one pass over the already-computed member sets; bounded by topKSeq output)
	for i, key := range keys {
		w := make([]uint64, words)
		for _, u := range key {
			w[int(u)>>6] |= 1 << (uint(u) & 63)
		}
		sets[i] = w
	}
	selected := make([]*Team, 0, k)
	selSets := make([][]uint64, 0, k)
	selSizes := make([]int, 0, k)
	chosen := make([]bool, len(distinct))
	for len(selected) < k {
		// The greedy re-scoring below is O(candidates x selected) per
		// pick — the expensive half of diverse top-K — so honour the
		// deadline at every pick boundary like the solver does per seed.
		if err := ctx.Err(); err != nil {
			return nil, ctxErr(err)
		}
		bestIdx := -1
		var bestScore float64
		for i, tm := range distinct {
			if chosen[i] {
				continue
			}
			overlap := 0.0
			for j, sel := range selSets {
				inter := container.AndCount(sets[i], sel)
				union := len(keys[i]) + selSizes[j] - inter
				if union > 0 {
					if jac := float64(inter) / float64(union); jac > overlap {
						overlap = jac
					}
				}
			}
			// Strict improvement: score ties resolve to the earlier
			// candidate in cost-sorted order, which is why the
			// truncation at lambda = 0 is the same selection.
			score := float64(tm.Cost) + lambda*overlap
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		chosen[bestIdx] = true
		selected = append(selected, distinct[bestIdx])
		selSets = append(selSets, sets[bestIdx])
		selSizes = append(selSizes, len(keys[bestIdx]))
	}
	return selected, nil
}

// FormTopKContext compiles a plan and returns up to k distinct teams
// in increasing cost order (ties broken by member set) — the top-k
// variant in the spirit of Kargar & An (CIKM 2011), which falls out of
// Algorithm 2's candidate list L. It is FormTopKDiverseContext at
// lambda = 0, which keeps the cost order and packs no member sets.
// Seeds run in order on the calling goroutine, each under a bound set
// by the k cheapest teams held so far, which no selectable team
// reaches. SeedsTried and SeedsSucceeded on the returned teams are
// aggregates of the whole search, not per-team telemetry: every
// returned team carries the same totals — how many seeds Algorithm 2
// tried and how many of them grew into a (not necessarily distinct)
// team priced below the bound in force, a count that depends on k and
// lambda — even after the list is deduplicated and sliced to k. As in
// FormIntoContext, a lazy-engine relation error met only by a skipped
// seed is never seen. It returns ErrNoTeam when no seed produces a
// team.
func (s *Solver) FormTopKContext(ctx context.Context, task skills.Task, opts Options, k int) ([]*Team, error) {
	return s.FormTopKDiverseContext(ctx, task, opts, k, 0)
}

// FormTopKContext solves the plan and returns up to k distinct teams
// in increasing cost order: FormTopKDiverseContext at lambda = 0 (see
// Solver.FormTopKContext).
func (p *TaskPlan) FormTopKContext(ctx context.Context, k int) ([]*Team, error) {
	return p.FormTopKDiverseContext(ctx, k, 0)
}

// topKSeq is top-K's seed loop: formSeq's branch and bound, keeping
// every distinct team where formSeq keeps the cheapest. A team priced
// below the bound in force is inserted into the held list, sorted by
// (cost, member set), unless an earlier seed grew the same member set.
// Once k teams are held, each seed grows under topKBound(c, lambda), c
// the k-th held cost, and canBeat screens it first at bounds up to
// screenBound (RandomUser excepted). It returns the held teams, their
// sorted member sets (sc.best holds each grown one) and top-K's
// SeedsSucceeded, the seeds that priced below the bound in force.
//
// The bound is exact. c only falls, so every bound was at least
// c* + s, c* the k-th cheapest distinct cost of the full sweep and
// s = max(1, ⌈lambda⌉). A grow completing under a bound makes an
// unbounded grow's picks (see formSeq), so every team below c* + s is
// held. A team T costing at least c* + s, as any dropped team does, is
// never selected. At lambda = 0 the first k held cost at most c* <
// cost(T); a team at c* itself prices below c* + 1 and can still enter
// by the member-set tie-break. At lambda > 0, while fewer than k are
// selected, some unchosen U among the k cheapest scores
// cost(U) + lambda·overlap ≤ fl(c* + lambda) ≤ cost(T) under monotone
// float64 rounding (overlap ≤ 1, and cost(T) is exact in float64). T
// scores at least cost(T), and a tie goes to U, earlier in cost order.
//
//tfsn:ctxpoll
func (p *TaskPlan) topKSeq(ctx context.Context, sc *scratch, k int, lambda float64) (teams []*Team, keys [][]sgraph.NodeID, succeeded int, err error) {
	bound := int32(noBound)
	sc.reach = nil
	screen := p.opts.User != RandomUser
	for _, seed := range p.seeds {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, ctxErr(err)
		}
		if screen && bound <= screenBound && !p.canBeat(sc, seed, bound) {
			continue // it cannot price below bound
		}
		cost, ok, err := p.grow(sc, seed, bound)
		if err != nil {
			return nil, nil, 0, err
		}
		if !ok {
			continue // failed, or abandoned: it could not be selected
		}
		succeeded++
		sc.best = append(sc.best[:0], sc.members...)
		slices.Sort(sc.best)
		i := sort.Search(len(teams), func(j int) bool {
			if c := teams[j].Cost; c != cost {
				return c > cost
			}
			return compareMemberSets(keys[j], sc.best) >= 0
		})
		if i < len(teams) && teams[i].Cost == cost && compareMemberSets(keys[i], sc.best) == 0 {
			continue // an earlier seed grew this team
		}
		teams = slices.Insert(teams, i, &Team{Members: slices.Clone(sc.members), Cost: cost})
		keys = slices.Insert(keys, i, slices.Clone(sc.best))
		if len(teams) >= k {
			bound = topKBound(teams[k-1].Cost, lambda)
		}
	}
	if succeeded == 0 {
		return nil, nil, 0, &seedsFailedError{seeds: len(p.seeds), task: p.task}
	}
	return teams, keys, succeeded, nil
}

// topKBound is topKSeq's bound once k distinct teams are held and c is
// the k-th cheapest of their costs: c + max(1, ⌈lambda⌉), clamped to
// noBound. The slack is rounded up on lambda alone and added as an
// integer: ⌈float64(c) + lambda⌉ would round a tiny lambda away and
// give c, dropping the teams tied at c.
func topKBound(c int32, lambda float64) int32 {
	slack := max(1, math.Ceil(lambda))
	if slack >= float64(noBound-c) {
		return noBound
	}
	return c + int32(slack)
}

// compareMemberSets orders two sorted member sets exactly as the
// comma-joined decimal keys of the original implementation compared,
// so the top-K tie-break order is stable across the rewrite: sets are
// compared element-wise by the decimal string of each id (a decimal
// prefix sorts first, matching ',' < '0'), then by length.
func compareMemberSets(a, b []sgraph.NodeID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			var bufA, bufB [20]byte
			da := strconv.AppendInt(bufA[:0], int64(a[i]), 10)
			db := strconv.AppendInt(bufB[:0], int64(b[i]), 10)
			return bytes.Compare(da, db)
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
