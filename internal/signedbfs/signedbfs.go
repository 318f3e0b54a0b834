// The path-count result of one source and the saturating counter
// arithmetic. Package documentation lives in doc.go.

package signedbfs

import (
	"math/bits"

	"repro/internal/sgraph"
)

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = int32(-1)

// Result holds the output of CountPathsInto for one source node.
type Result struct {
	Source sgraph.NodeID
	// Dist[v] is the shortest-path length from Source to v, or
	// Unreachable.
	Dist []int32
	// Pos[v] and Neg[v] are the numbers of positive and negative
	// shortest paths from Source to v, saturating at MaxUint64.
	Pos, Neg []uint64
	// SaturatedAt is true when at least one counter addition
	// saturated, meaning Pos/Neg values are lower bounds.
	SaturatedAt bool
}

// HasPositive reports whether at least one shortest path from the
// source to v is positive. Exact even under saturation.
func (r *Result) HasPositive(v sgraph.NodeID) bool { return r.Pos[v] > 0 }

// AllPositive reports whether every shortest path from the source to v
// is positive (and at least one path exists).
func (r *Result) AllPositive(v sgraph.NodeID) bool {
	return r.Pos[v] > 0 && r.Neg[v] == 0
}

// MajorityPositive reports whether positive shortest paths are at
// least as many as negative ones (and v is reachable). Can be inexact
// only when both counters saturated; see Result.SaturatedAt.
func (r *Result) MajorityPositive(v sgraph.NodeID) bool {
	return r.Dist[v] != Unreachable && r.Pos[v] >= r.Neg[v]
}

// satAdd is a+b saturating at MaxUint64, reporting whether it
// saturated: CountPathsInto's saturation rule. (The counting
// MultiSweep does not saturate: it flags any count reaching 2^31
// instead; see MultiSweep.Overflowed.)
func satAdd(a, b uint64) (uint64, bool) {
	sum, carry := bits.Add64(a, b, 0)
	return sum | -carry, carry != 0
}

// satAdd is the package satAdd, recording a saturation in SaturatedAt.
func (r *Result) satAdd(a, b uint64) uint64 {
	s, saturated := satAdd(a, b)
	if saturated {
		r.SaturatedAt = true
	}
	return s
}
