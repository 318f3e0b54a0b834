// The allocating single-source entry points and the saturating
// counter arithmetic. Package documentation lives in doc.go.

package signedbfs

import (
	"math/big"
	"math/bits"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = int32(-1)

// Result holds the output of CountPaths for one source node.
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

// HasNegative reports whether at least one shortest path from the
// source to v is negative. Exact even under saturation.
func (r *Result) HasNegative(v sgraph.NodeID) bool { return r.Neg[v] > 0 }

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

// Reachable reports whether v is reachable from the source.
func (r *Result) Reachable(v sgraph.NodeID) bool { return r.Dist[v] != Unreachable }

// CountPaths runs the signed path-counting BFS (Algorithm 1) from src.
// It is a convenience wrapper over CountPathsInto with a fresh Result
// and Scratch; all-pairs sweeps should hold one Scratch per worker and
// call CountPathsInto directly to avoid the per-source allocations.
func CountPaths(g *sgraph.Graph, src sgraph.NodeID) *Result {
	return CountPathsInto(g, src, &Result{}, NewScratch(g.NumNodes()))
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

// BigResult is the exact-arithmetic counterpart of Result.
type BigResult struct {
	Source   sgraph.NodeID
	Dist     []int32
	Pos, Neg []*big.Int
}

// CountPathsBig runs Algorithm 1 with exact big.Int counters. It is
// an order of magnitude slower than CountPaths and exists to validate
// the saturating implementation (see the path-counting ablation).
func CountPathsBig(g *sgraph.Graph, src sgraph.NodeID) *BigResult {
	n := g.NumNodes()
	res := &BigResult{
		Source: src,
		Dist:   make([]int32, n),
		Pos:    make([]*big.Int, n),
		Neg:    make([]*big.Int, n),
	}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.Pos[i] = new(big.Int)
		res.Neg[i] = new(big.Int)
	}
	res.Dist[src] = 0
	res.Pos[src].SetInt64(1)

	q := container.NewIntQueue(n)
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := res.Dist[u]
		ids := g.NeighborIDs(u)
		signs := g.NeighborSigns(u)
		for i, v := range ids {
			if res.Dist[v] == Unreachable {
				res.Dist[v] = du + 1
				q.Push(v)
			}
			if res.Dist[v] == du+1 {
				if signs[i] == sgraph.Positive {
					res.Pos[v].Add(res.Pos[v], res.Pos[u])
					res.Neg[v].Add(res.Neg[v], res.Neg[u])
				} else {
					res.Neg[v].Add(res.Neg[v], res.Pos[u])
					res.Pos[v].Add(res.Pos[v], res.Neg[u])
				}
			}
		}
	}
	return res
}
