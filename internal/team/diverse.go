// Top-K team selection, plain and diverse: the one routine behind
// FormTopKContext and FormTopKDiverseContext. The candidate list is
// every distinct grown team, cost-sorted — Algorithm 2's list L.
// Plain top-K (lambda = 0) returns its first k. The diverse variant,
// in the spirit of Gajewar & Das Sarma's density objectives, selects
// greedily by score = cost + lambda·maxOverlap instead, where
// maxOverlap is the largest Jaccard similarity between a candidate's
// member set and any already-selected team. Member sets are packed
// into row-width bitsets so each Jaccard is one word-parallel
// AND/popcount pass (kernels.AndCount via container.AndCount) — the
// penalty is near-free next to the solve itself. The greedy scan at
// lambda = 0 would select the same cost order (ties resolve to the
// earlier, cost-sorted candidate), so that case skips the packing and
// truncates.

package team

import (
	"context"
	"fmt"
	"math"

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
	distinct, keys, succeeded, err := p.rankedTeams(ctx)
	if err != nil {
		return nil, err
	}
	if k > len(distinct) {
		k = len(distinct)
	}
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
	//tfsn:ctxfree(one pass over the already-computed member sets; bounded by rankedTeams output)
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
