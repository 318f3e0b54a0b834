package signedbfs

import (
	"math"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// Scratch holds the reusable per-traversal state of the BFS routines:
// an epoch-stamped discovery array (so no O(n) clear is needed between
// runs) and the FIFO queue. A warm Scratch makes CountPathsInto and
// DistancesInto allocation-free, which is what the all-pairs sweeps
// (packed-engine construction, ComputeStats, Precompute) rely on — each
// worker owns one Scratch and reuses it across its sources.
//
// A Scratch is not safe for concurrent use; give every goroutine its
// own.
type Scratch struct {
	epoch int32
	seen  []int32 // seen[v] == epoch ⇔ v was discovered this traversal
	queue container.IntQueue
	// The parallel sweeps allocate one Scratch per worker back to back,
	// and every push and pop writes the queue indices: padding to two
	// whole cache lines (128 bytes, a size class the allocator aligns
	// to 128) keeps two workers' scratches off a shared line, where the
	// false sharing measurably slowed whole builds.
	_ [48]byte
}

// NewScratch returns a Scratch sized for graphs of up to n nodes. It
// grows automatically if later used on a larger graph.
func NewScratch(n int) *Scratch {
	s := &Scratch{seen: make([]int32, n)}
	s.queue = *container.NewIntQueue(n)
	return s
}

// begin starts a new traversal epoch over n nodes and returns the
// stamp array and epoch value.
func (s *Scratch) begin(n int) ([]int32, int32) {
	if len(s.seen) < n {
		s.seen = make([]int32, n)
		s.epoch = 0
	}
	if s.epoch == math.MaxInt32 { // stamp wrap: start over
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.queue.Reset()
	return s.seen, s.epoch
}

// CountPathsInto runs the signed path-counting BFS (Algorithm 1) from
// src, writing the result into res and using scratch for all transient
// state. res's slices are reused when large enough and reallocated
// otherwise, so a warm (res, scratch) pair makes the call free of heap
// allocations. It returns res for convenience.
//
//tfsn:noalloc
func CountPathsInto(g *sgraph.Graph, src sgraph.NodeID, res *Result, scratch *Scratch) *Result {
	n := g.NumNodes()
	res.Source = src
	res.SaturatedAt = false
	res.Dist = resizeInt32(res.Dist, n)
	res.Pos = resizeUint64(res.Pos, n)
	res.Neg = resizeUint64(res.Neg, n)

	seen, epoch := scratch.begin(n)
	q := &scratch.queue

	res.Dist[src] = 0
	res.Pos[src] = 1
	res.Neg[src] = 0
	seen[src] = epoch
	reached := 1
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := res.Dist[u]
		ids := g.NeighborIDs(u)
		signs := g.NeighborSigns(u)
		for i, v := range ids {
			if seen[v] != epoch {
				seen[v] = epoch
				res.Dist[v] = du + 1
				res.Pos[v] = 0
				res.Neg[v] = 0
				reached++
				q.Push(v)
			}
			if res.Dist[v] == du+1 {
				// v is reached via a shortest path through u: all of
				// u's shortest paths extend to v, keeping their sign
				// on a positive edge and flipping it on a negative.
				if signs[i] == sgraph.Positive {
					res.Pos[v] = res.satAdd(res.Pos[v], res.Pos[u])
					res.Neg[v] = res.satAdd(res.Neg[v], res.Neg[u])
				} else {
					res.Neg[v] = res.satAdd(res.Neg[v], res.Pos[u])
					res.Pos[v] = res.satAdd(res.Pos[v], res.Neg[u])
				}
			}
		}
	}
	if reached < n {
		// Nodes never discovered this epoch still hold the previous
		// traversal's values; restore the documented unreachable state.
		for v := range res.Dist {
			if seen[v] != epoch {
				res.Dist[v] = Unreachable
				res.Pos[v] = 0
				res.Neg[v] = 0
			}
		}
	}
	return res
}

// DistancesInto is the sign-oblivious counterpart of CountPathsInto:
// it computes single-source shortest-path lengths from src into dist,
// growing it only when too small, and returns the slice. A warm
// (dist, scratch) pair allocates nothing.
//
//tfsn:noalloc
func DistancesInto(g *sgraph.Graph, src sgraph.NodeID, dist []int32, scratch *Scratch) []int32 {
	n := g.NumNodes()
	dist = resizeInt32(dist, n)
	seen, epoch := scratch.begin(n)
	q := &scratch.queue

	dist[src] = 0
	seen[src] = epoch
	reached := 1
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := dist[u]
		for _, v := range g.NeighborIDs(u) {
			if seen[v] != epoch {
				seen[v] = epoch
				dist[v] = du + 1
				reached++
				q.Push(v)
			}
		}
	}
	if reached < n {
		for v := range dist {
			if seen[v] != epoch {
				dist[v] = Unreachable
			}
		}
	}
	return dist
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
