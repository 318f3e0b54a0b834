// Constrained formation: the must-include / must-exclude / max-size
// vocabulary of Rangapuram et al.'s realistic team formation, compiled
// into the existing TaskPlan machinery (see solver.go). Constraints
// ride on Options, so plan caching, epoch invalidation, FormBatch and
// the packed kernels apply to constrained solves unchanged: includes
// become pre-covered task positions seeded into every grow, exclusions
// become a packed allow-mask ANDed into the per-seed eligibility mask,
// and a size cap bounds the greedy loop. Contradictory constraints
// fail plan compilation with ErrInfeasible, which wraps ErrNoTeam so
// the negative plan-cache path and the batch nil-mapping treat it like
// any other deterministic infeasibility.

package team

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sgraph"
)

// ErrInfeasible reports that the constraints themselves rule out every
// team: a user both required and excluded, a size cap below the number
// of required members, or a task skill whose every holder is excluded.
// It wraps ErrNoTeam, so callers that only distinguish "no team" from
// hard failures need no new case; errors.Is(err, ErrInfeasible) tells
// the two apart (the serving layer counts infeasible answers
// separately). Like other plan-time ErrNoTeam failures it is cached as
// a negative plan entry, epoch-keyed so a graph mutation retires it.
var ErrInfeasible = fmt.Errorf("%w (infeasible constraints)", ErrNoTeam)

// Constraints restricts which teams formation may return. The zero
// value is unconstrained. Constraints are carried on Options, so every
// entry point — FormIntoContext, the top-K calls, the batch calls —
// and every engine honours them, and the plan cache keys on them.
type Constraints struct {
	// MustInclude lists users every returned team must contain. They
	// join the team before the seed, cover the task positions their
	// skills satisfy, and participate in pricing like any member; a
	// seed incompatible with them fails exactly as if a greedy pick had
	// failed. Order and duplicates are irrelevant (plans canonicalise).
	MustInclude []sgraph.NodeID
	// MustExclude lists users no returned team may contain: they are
	// removed from the seed list and from every candidate set.
	MustExclude []sgraph.NodeID
	// MaxTeamSize caps the member count; 0 means unbounded. A grow
	// that still has uncovered skills at the cap fails that seed.
	MaxTeamSize int
}

// IsZero reports the unconstrained zero value.
func (c Constraints) IsZero() bool {
	return len(c.MustInclude) == 0 && len(c.MustExclude) == 0 && c.MaxTeamSize == 0
}

// canonicalNodes returns a sorted, duplicate-free copy of xs (nil when
// empty).
func canonicalNodes(xs []sgraph.NodeID) []sgraph.NodeID {
	if len(xs) == 0 {
		return nil
	}
	out := append([]sgraph.NodeID(nil), xs...)
	slices.Sort(out)
	return slices.Compact(out)
}

// canonical returns the canonical form: both lists sorted and
// duplicate-free. Plans store (and the plan cache compares) this form,
// so differently-ordered spellings of one constraint set share a cache
// entry.
func (c Constraints) canonical() Constraints {
	return Constraints{
		MustInclude: canonicalNodes(c.MustInclude),
		MustExclude: canonicalNodes(c.MustExclude),
		MaxTeamSize: c.MaxTeamSize,
	}
}

// equal compares two canonical constraint sets.
func (c Constraints) equal(d Constraints) bool {
	if c.MaxTeamSize != d.MaxTeamSize ||
		len(c.MustInclude) != len(d.MustInclude) ||
		len(c.MustExclude) != len(d.MustExclude) {
		return false
	}
	for i, u := range c.MustInclude {
		if d.MustInclude[i] != u {
			return false
		}
	}
	for i, u := range c.MustExclude {
		if d.MustExclude[i] != u {
			return false
		}
	}
	return true
}

// Validate checks the constraints against a universe of numUsers users
// (pass numUsers <= 0 to skip the range check, e.g. before a dataset
// is loaded). Malformed constraints — negative ids, out-of-range ids,
// a negative size cap — return plain errors: the caller passed
// garbage. Well-formed but contradictory constraints — a user both
// required and excluded, a cap below the required-member count —
// return errors wrapping ErrInfeasible: the query is valid and its
// answer is "no such team".
func (c Constraints) Validate(numUsers int) error {
	if c.MaxTeamSize < 0 {
		return fmt.Errorf("team: negative MaxTeamSize %d", c.MaxTeamSize)
	}
	for _, list := range [2][]sgraph.NodeID{c.MustInclude, c.MustExclude} {
		for _, u := range list {
			if u < 0 || (numUsers > 0 && int(u) >= numUsers) {
				return fmt.Errorf("team: constraint user %d out of range [0, %d)", u, numUsers)
			}
		}
	}
	d := c.canonical()
	i, j := 0, 0
	for i < len(d.MustInclude) && j < len(d.MustExclude) {
		switch {
		case d.MustInclude[i] == d.MustExclude[j]:
			return fmt.Errorf("%w: user %d is both required and excluded", ErrInfeasible, d.MustInclude[i])
		case d.MustInclude[i] < d.MustExclude[j]:
			i++
		default:
			j++
		}
	}
	if c.MaxTeamSize > 0 && len(d.MustInclude) > c.MaxTeamSize {
		return fmt.Errorf("%w: %d required members exceed MaxTeamSize %d", ErrInfeasible, len(d.MustInclude), c.MaxTeamSize)
	}
	return nil
}

// Fingerprint renders the canonical constraints as a short string key,
// "" for the zero value. Coalescing layers key batch windows on it so
// requests under different constraints never merge into one FormBatch
// (equal fingerprints imply semantically equal constraints).
func (c Constraints) Fingerprint() string {
	if c.IsZero() {
		return ""
	}
	d := c.canonical()
	var b strings.Builder
	b.WriteString("in:")
	for i, u := range d.MustInclude {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(u)))
	}
	b.WriteString(";ex:")
	for i, u := range d.MustExclude {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(u)))
	}
	b.WriteString(";max:")
	b.WriteString(strconv.Itoa(d.MaxTeamSize))
	return b.String()
}
