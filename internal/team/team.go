// Algorithm 2, its policy knobs and the cost functions. Package
// documentation lives in doc.go.

package team

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/compat"
	"repro/internal/sgraph"
)

// ErrNoTeam reports that no compatible team covering the task exists
// (or that the algorithm could not find one).
var ErrNoTeam = errors.New("team: no compatible team found")

// ErrDeadlineExceeded reports a solve aborted because its context's
// deadline expired — the serving path's per-request deadline. The
// solver checks cooperatively (once per seed, per batch task and per
// worker-pool item), so an abort leaves every scratch and cached plan
// reusable: the next request on the same solver is unaffected. Errors
// returned by the *Context entry points wrap both this sentinel and
// the originating context error, so errors.Is matches either.
var ErrDeadlineExceeded = errors.New("team: deadline exceeded")

// ErrCanceled is ErrDeadlineExceeded's sibling for contexts canceled
// for any other reason (client gone, server draining past its grace
// period).
var ErrCanceled = errors.New("team: solve canceled")

// ctxErr maps a non-nil context error onto the package's typed
// serving errors, wrapping the original so errors.Is works against
// both the team sentinel and the context cause.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// SkillPolicy selects which uncovered skill to satisfy next.
type SkillPolicy int

const (
	// RarestFirst picks the uncovered skill with the fewest holders,
	// as in Lappas et al.
	RarestFirst SkillPolicy = iota
	// LeastCompatibleFirst picks the uncovered skill with the lowest
	// compatibility degree cd(s) — the hardest skill to place.
	LeastCompatibleFirst
)

// String names the policy.
func (p SkillPolicy) String() string {
	switch p {
	case RarestFirst:
		return "RarestFirst"
	case LeastCompatibleFirst:
		return "LeastCompatible"
	default:
		return fmt.Sprintf("SkillPolicy(%d)", int(p))
	}
}

// UserPolicy selects which compatible holder of the chosen skill joins
// the team.
type UserPolicy int

const (
	// MinDistance picks the candidate minimising the maximum
	// relation-distance to the current team (the diameter objective).
	MinDistance UserPolicy = iota
	// MostCompatible picks the candidate compatible with the largest
	// number of users in the task's candidate pool.
	MostCompatible
	// RandomUser picks a compatible candidate uniformly at random
	// (the paper's RANDOM baseline).
	RandomUser
)

// String names the policy.
func (p UserPolicy) String() string {
	switch p {
	case MinDistance:
		return "MinDistance"
	case MostCompatible:
		return "MostCompatible"
	case RandomUser:
		return "Random"
	default:
		return fmt.Sprintf("UserPolicy(%d)", int(p))
	}
}

// CostKind selects the communication-cost objective. The paper uses
// the team diameter; SumDistance is the extension suggested in its
// conclusions ("investigate different ways to combine compatibility
// and communication cost") — it penalises every far pair instead of
// only the worst one.
type CostKind int

const (
	// Diameter is the largest pairwise relation-distance (the paper's
	// Cost).
	Diameter CostKind = iota
	// SumDistance is the sum of all pairwise relation-distances.
	SumDistance
)

// String names the cost.
func (c CostKind) String() string {
	switch c {
	case Diameter:
		return "Diameter"
	case SumDistance:
		return "SumDistance"
	default:
		return fmt.Sprintf("CostKind(%d)", int(c))
	}
}

// Options configures a formation query.
type Options struct {
	Skill SkillPolicy
	User  UserPolicy
	// Cost selects the objective (default: Diameter, as in the
	// paper). It steers both the MinDistance policy and the choice
	// among seed teams.
	Cost CostKind
	// Rng drives RandomUser; required for that policy, unused
	// otherwise.
	Rng *rand.Rand
	// MaxSeeds caps how many holders of the first skill are tried as
	// seeds; 0 tries all of them (Algorithm 2's outer loop).
	MaxSeeds int
	// Constraints restricts formation: required members, forbidden
	// members and a team-size cap. The zero value is unconstrained;
	// see Constraints for the semantics and ErrInfeasible for
	// contradictory sets.
	Constraints Constraints
	// DiverseLambda is the overlap penalty weight of the top-K entry
	// points. FormTopKDiverseContext sets it (callers pass lambda
	// explicitly; FormTopKContext passes 0) and it exists on Options
	// so the plan-cache fingerprint covers it; FormIntoContext and the
	// batch entry points ignore it.
	DiverseLambda float64
}

// Team is a solution: its members, its cost, and search telemetry.
type Team struct {
	Members []sgraph.NodeID
	// Cost is the team's cost under Options.Cost: the largest pairwise
	// relation-distance for Diameter, their sum for SumDistance (0 for
	// teams of one member either way).
	Cost int32
	// SeedsTried and SeedsSucceeded count Algorithm 2's outer loop:
	// the seeds tried, and the seeds that grew into a complete team
	// priced below the bound in force when they ran. Every entry point
	// runs one sequential bounded loop, which never sees a lazy-engine
	// relation error met only by a seed it skips. FormIntoContext and
	// the batch entry points bound by the best team, so SeedsSucceeded
	// counts the seeds that set a new best (the first priced one
	// included); the top-K entry points bound by their k cheapest
	// teams and stamp whole-search aggregates (Solver.FormTopKContext).
	SeedsTried, SeedsSucceeded int
}

// errUndefinedDistance reports a member pair with no relation
// distance (e.g. disconnected under the relation's path semantics).
var errUndefinedDistance = errors.New("team: undefined distance inside team")

// Cost returns the team diameter: the maximum pairwise
// relation-distance between members. Teams of size ≤ 1 cost 0.
func Cost(rel compat.Relation, members []sgraph.NodeID) (int32, error) {
	return CostWith(rel, members, Diameter)
}

// CostWith prices a team under the chosen objective. A relation
// failure (on the packed engine, a spilled shard that cannot be
// reloaded) is returned as an error.
func CostWith(rel compat.Relation, members []sgraph.NodeID, kind CostKind) (int32, error) {
	var cost int32
	for i, u := range members {
		for _, v := range members[i+1:] {
			d, ok, err := rel.Distance(u, v)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, fmt.Errorf("%w: pair (%d,%d)", errUndefinedDistance, u, v)
			}
			switch kind {
			case SumDistance:
				cost += d
			default: // Diameter
				if d > cost {
					cost = d
				}
			}
		}
	}
	return cost, nil
}

// Compatible reports whether every pair of members is compatible
// under rel — the Table 3 acceptance test for unsigned baselines.
func Compatible(rel compat.Relation, members []sgraph.NodeID) (bool, error) {
	for i, u := range members {
		for _, v := range members[i+1:] {
			ok, err := rel.Compatible(u, v)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}
