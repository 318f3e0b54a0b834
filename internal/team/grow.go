// Algorithm 2's inner loop: growing one seed into a team, member by
// member, under a cost bound, and the user-policy picks it makes.

package team

import (
	"fmt"
	"math"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

// addMember grows the current team by u: appends it, marks the
// uncovered task skills it holds (one bit test per skill), ANDs its
// packed row into the candidate mask (so candidate filtering is one
// bit test per holder regardless of team size) and caches its packed
// distance row for the fused pick and contribution. Because every task
// skill a member holds is covered here, no member is ever a candidate
// of a later pick, which is what gives pickNearest its floor.
func (sc *scratch) addMember(p *TaskPlan, u sgraph.NodeID) {
	if m := p.s.matrix; m != nil {
		if len(sc.members) == 0 {
			sc.mask.CopyFrom(m.RowWords(u))
			if p.allowWords != nil {
				// Fold the exclusion complement in once; every later
				// member ANDs on top, so excluded users stay masked out
				// of candidate enumeration for the whole grow.
				sc.mask.And(p.allowWords)
			}
		} else {
			sc.mask.And(m.RowWords(u))
		}
		sc.rows.Append(m.DistanceRow(u))
	}
	sc.members = append(sc.members, u)
	for i := range p.task {
		if !sc.covered.Contains(i) && p.holds(i, u) {
			sc.covered.Set(i)
			sc.nCov++
		}
	}
}

// nextSkill returns the best-ranked uncovered skill. Callers only
// invoke it while uncovered skills remain.
func (p *TaskPlan) nextSkill(sc *scratch) skills.SkillID {
	for i, sk := range p.order {
		if !sc.covered.Contains(int(p.orderPos[i])) {
			return sk
		}
	}
	panic("team: nextSkill called with all skills covered")
}

// teamCompatible reports whether u is compatible with every current
// member (vacuously true for the first). On packed engines the scratch
// mask answers in one bit test; the lazy path checks pairwise.
func (p *TaskPlan) teamCompatible(sc *scratch, u sgraph.NodeID) (bool, error) {
	if len(sc.members) == 0 {
		return true, nil
	}
	if sc.mask != nil {
		return sc.mask.Contains(int(u)), nil
	}
	for _, x := range sc.members {
		ok, err := p.s.rel.Compatible(x, u)
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// noBound is grow's bound when there is none: before the first
// priced team, and for top-K until k distinct teams are held.
const noBound = math.MaxInt32

// grow runs Algorithm 2's inner loop for one seed into sc.members and
// returns the team's cost, accumulated as each member joins. ok=false
// reports a failed seed (no compatible holder of some skill, an include
// or seed incompatible with the members so far, the size cap reached
// with skills uncovered, or an undefined distance inside the team) or
// an abandoned one, whose partial cost reached bound; ok=true
// guarantees cost < bound. Both objectives only grow as members join,
// so an abandoned seed could not have priced below bound. A non-nil
// error is a relation failure and aborts the whole solve. Includes
// join first, in canonical order, each checked against the members
// before it — so a mutually incompatible include set fails every seed
// and the solve reports ErrNoTeam.
func (p *TaskPlan) grow(sc *scratch, seed sgraph.NodeID, bound int32) (int32, bool, error) {
	sc.members = sc.members[:0]
	sc.rows.Reset()
	sc.covered.Grow(len(p.task))
	sc.nCov = 0
	sc.cost, sc.priced = 0, true
	for _, u := range p.includes {
		ok, err := p.teamCompatible(sc, u)
		if err == nil && ok {
			ok, err = p.join(sc, u, unpriced, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	if !p.seedInc {
		if p.maxSize > 0 && len(sc.members) >= p.maxSize {
			return 0, false, nil
		}
		ok, err := p.teamCompatible(sc, seed)
		if err == nil && ok {
			ok, err = p.join(sc, seed, unpriced, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	for sc.nCov < len(p.task) {
		if p.maxSize > 0 && len(sc.members) >= p.maxSize {
			return 0, false, nil
		}
		v, c, ok, err := p.pick(sc, p.nextSkill(sc), p.budget(sc, bound))
		if err == nil && ok {
			ok, err = p.join(sc, v, c, bound)
		}
		if err != nil || !ok {
			return 0, false, err
		}
	}
	return sc.cost, sc.priced, nil
}

// unpriced is join's contribution argument for a member the pick did
// not price: includes, the seed, and the picks of user policies other
// than MinDistance.
const unpriced = -1

// budget is the exclusive ceiling on the next member's contribution:
// one at or above it brings the running cost to bound.
func (p *TaskPlan) budget(sc *scratch, bound int32) int32 {
	if p.opts.Cost == SumDistance {
		return bound - sc.cost
	}
	return bound
}

// join adds u to the team and folds its contribution c — its largest
// (Diameter) or total (SumDistance) distance to the members before it,
// computed here when c is unpriced, and always below the budget — into
// the running cost, which therefore stays below bound. keep=false
// abandons the seed: u has no defined distance to some member, or the
// cost would reach bound. RandomUser keeps growing such a seed,
// unpriced, so every seed draws from Options.Rng exactly as a full
// growth does; sc.priced then reports the seed failed when grow ends.
func (p *TaskPlan) join(sc *scratch, u sgraph.NodeID, c, bound int32) (keep bool, err error) {
	if sc.priced {
		if c == unpriced {
			if c, sc.priced, err = p.contribution(sc, u, p.budget(sc, bound)); err != nil {
				return false, err
			}
		}
		if p.opts.Cost == SumDistance {
			sc.cost += c
		} else if c > sc.cost {
			sc.cost = c
		}
	}
	sc.addMember(p, u)
	return sc.priced || p.opts.User == RandomUser, nil
}

// contribution prices u against the current members: its largest
// (Diameter) or total (SumDistance) distance to them. ok=false reports
// an undefined distance or a contribution at or above budget. On
// packed engines each member's cached distance row answers in one
// slice index (the shared DistRows.Contribution loop); lazy engines
// ask the relation pair by pair, member first, and stop at the budget.
func (p *TaskPlan) contribution(sc *scratch, u sgraph.NodeID, budget int32) (int32, bool, error) {
	sum := p.opts.Cost == SumDistance
	if sc.mask != nil {
		c, ok := sc.rows.Contribution(sc.rows.Len(), u, sum)
		return c, ok && c < budget, nil
	}
	c := int32(0)
	for _, x := range sc.members {
		d, ok, err := p.s.rel.Distance(x, u)
		if err != nil || !ok {
			return 0, false, err
		}
		if sum {
			c += d
		} else if d > c {
			c = d
		}
		if c >= budget {
			return 0, false, nil
		}
	}
	return c, c < budget, nil
}

// pick selects which compatible holder of skill joins sc.members,
// according to the user policy, and returns its contribution to the
// cost — under MinDistance the pick's own score, which must lie below
// budget; unpriced under the other policies, which ignore the budget.
// ok=false means no compatible holder (or, under MinDistance, none at
// a defined distance below budget).
func (p *TaskPlan) pick(sc *scratch, skill skills.SkillID, budget int32) (sgraph.NodeID, int32, bool, error) {
	if sc.mask != nil && p.opts.User == MinDistance {
		v, c, ok, _ := p.pickNearest(sc, skill, budget)
		return v, c, ok, nil
	}
	sc.cand = sc.cand[:0]
	if sc.mask != nil {
		// Word-parallel fast path: the mask already holds the AND of
		// the members' rows, so compatibility with the whole team is
		// one bit test per holder.
		for _, v := range p.s.assign.Holders(skill) {
			if sc.mask.Contains(int(v)) {
				sc.cand = append(sc.cand, v)
			}
		}
	} else {
	holders:
		for _, v := range p.s.assign.Holders(skill) {
			if p.exclSet != nil && p.exclSet.Contains(int(v)) {
				continue
			}
			for _, x := range sc.members {
				// Query with the team member first: relations cache
				// rows per source, and the team side is small and
				// stable.
				ok, err := p.s.rel.Compatible(x, v)
				if err != nil {
					return 0, 0, false, err
				}
				if !ok {
					continue holders
				}
			}
			sc.cand = append(sc.cand, v)
		}
	}
	if len(sc.cand) == 0 {
		return 0, 0, false, nil
	}
	switch p.opts.User {
	case MinDistance:
		return p.pickMinDistance(sc, budget)
	case MostCompatible:
		best := sc.cand[0]
		bestDeg := p.degreeOf(best)
		for _, c := range sc.cand[1:] {
			if d := p.degreeOf(c); d > bestDeg {
				best, bestDeg = c, d
			}
		}
		return best, unpriced, true, nil
	case RandomUser:
		return sc.cand[p.opts.Rng.Intn(len(sc.cand))], unpriced, true, nil
	default:
		return 0, 0, false, fmt.Errorf("team: unknown user policy %d", int(p.opts.User))
	}
}

// adjacencyPerWord bounds pickNearest's neighbour pass: it runs while
// the walked member has at most this many neighbours per non-zero
// holder word of the skill. Past it, one kernel pass from the
// structural floor costs less than the walk plus a kernel pass from
// the raised floor. Timing both on the same picks of the Epinions
// stand-in (scale 0.2, SPM), the crossover lay near 6 neighbours per
// word under Diameter and near 2 under SumDistance; 4 splits them.
const adjacencyPerWord = 4

// pickRoute names the way pickNearest answered; the pick-level oracle
// test counts them to show that every branch ran.
type pickRoute uint8

const (
	// routeFloor: the budget is at or below the structural floor, so
	// no candidate can meet it.
	routeFloor pickRoute = iota
	// routeAdjacent: a common neighbour of the members scored the
	// structural floor.
	routeAdjacent
	// routeRaised: no common neighbour qualified, so the floor rose by
	// one; a budget at or below it answered none, any other ran the
	// kernel from it.
	routeRaised
	// routeSkipped: the shortest adjacency was too long for the pass,
	// so the kernel ran from the structural floor.
	routeSkipped
)

// pickNearest is pick under MinDistance on the packed engine. Its
// candidates are the set bits of (holder words AND mask), priced by
// one fused kernel pass over only the holder index's non-zero words
// (DistRows.PickMin) — no candidate slice, no per-candidate row
// indexing — and it starts that pass at a proven floor:
//
//   - A candidate is never a member (addMember covers every task skill
//     a member holds), so each member's distance to it is at least 1:
//     a Diameter score is at least 1, a SumDistance score over R
//     members at least R — the structural floor.
//   - A score meets that floor exactly when every distance is 1, and a
//     length-1 path is an edge under every relation kind: the
//     candidate is a common graph neighbour of the members. Walking the
//     sorted adjacency of the member with the fewest neighbours finds
//     such candidates in id order, so the first one that qualifies is
//     the exact answer — the minimum score at the smallest id.
//   - When none qualifies, no candidate scores the structural floor
//     and the floor rises by one: a budget at or below it answers none
//     without a kernel call, and the kernel returns at the first
//     candidate that scores it.
//
// grow joins the seed or an include before any pick, so the team has
// at least one member. The walk skips when even the shortest adjacency
// is long against the skill's holder words (adjacencyPerWord), keeping
// the structural floor. The adjacency is read from the engine's
// current graph, which mutations replace. Candidate order,
// undefined-skipping and the smaller-id tie-break match the lazy
// engine's pickMinDistance exactly; TestSolverMatchesReference and
// TestFloorPickMatchesReference pin that against the oracles.
func (p *TaskPlan) pickNearest(sc *scratch, skill skills.SkillID, budget int32) (sgraph.NodeID, int32, bool, pickRoute) {
	hi := p.s.assign.HolderIndex(skill)
	mask := sc.mask.Words()
	sum := p.opts.Cost == SumDistance
	r := sc.rows.Len()
	floor := int32(1)
	if sum {
		floor = int32(r)
	}
	if budget <= floor {
		return 0, 0, false, routeFloor
	}
	g := p.s.matrix.Graph()
	walk := sc.members[0]
	for _, u := range sc.members[1:] {
		if g.Degree(u) < g.Degree(walk) {
			walk = u
		}
	}
	route := routeSkipped
	if nb := g.NeighborIDs(walk); len(nb) <= adjacencyPerWord*len(hi.NonZero) {
		for _, v := range nb {
			wi := int(v) >> 6
			if wi >= len(hi.Words) {
				break // ascending ids: every later neighbour is past the holders too
			}
			if hi.Words[wi]&mask[wi]&(1<<(uint(v)&63)) == 0 {
				continue
			}
			if c, ok := sc.rows.Contribution(r, v, sum); ok && c == floor {
				return v, c, true, routeAdjacent
			}
		}
		floor++
		if budget <= floor {
			return 0, 0, false, routeRaised
		}
		route = routeRaised
	}
	v, c, ok := sc.rows.PickMin(hi.Words, mask, hi.NonZero, sum, floor, budget)
	return v, c, ok, route
}

// pickMinDistance chooses the candidate with the cheapest contribution
// to the configured cost — smallest maximum distance to the team for
// Diameter, smallest total for SumDistance; ties break to the smaller
// id — and returns it with that contribution. Candidates at an
// undefined distance to some member, or at or above budget, are
// skipped.
//
// It runs on the lazy engine only, pricing each candidate pair by pair
// through contribution; the packed engine never materialises
// candidates and picks through pickNearest, with the same candidate
// order and tie-break (both are tested against the pairwise oracle in
// solver_test.go).
func (p *TaskPlan) pickMinDistance(sc *scratch, budget int32) (sgraph.NodeID, int32, bool, error) {
	best := sgraph.NodeID(-1)
	bestDist := int32(0)
	for _, c := range sc.cand {
		contribution, ok, err := p.contribution(sc, c, budget)
		if err != nil {
			return 0, 0, false, err
		}
		if !ok {
			continue
		}
		if best == -1 || contribution < bestDist || (contribution == bestDist && c < best) {
			best, bestDist = c, contribution
		}
	}
	if best == -1 {
		return 0, 0, false, nil
	}
	return best, bestDist, true, nil
}
