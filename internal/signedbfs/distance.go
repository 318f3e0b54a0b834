package signedbfs

import (
	"math/bits"
	"runtime"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// Distances returns the single-source shortest-path lengths from src,
// ignoring edge signs. Unreachable nodes get Unreachable. It wraps
// DistancesInto with a fresh slice and Scratch.
func Distances(g *sgraph.Graph, src sgraph.NodeID) []int32 {
	return DistancesInto(g, src, nil, NewScratch(g.NumNodes()))
}

// Diameter computes the exact diameter of g — the largest shortest-path
// distance between any two nodes in the same component — from
// MultiSweep traversals of MaxSources sources each.
func Diameter(g *sgraph.Graph) int32 {
	diam, _, _ := distanceSweep(g)
	return diam
}

// AverageDistance returns the mean shortest-path distance over all
// ordered reachable pairs (u,v), u≠v, computed exactly from MultiSweep
// traversals of MaxSources sources each. It returns 0 for graphs with
// no such pairs.
func AverageDistance(g *sgraph.Graph) float64 {
	_, sum, pairs := distanceSweep(g)
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// distanceSweep sweeps g from every node, MaxSources consecutive ids
// per traversal, the traversals spread over GOMAXPROCS workers with one
// MultiSweep each. A level entry at depth d > 0 stands for one ordered
// reachable pair per source bit it carries, at distance d, so the sweep
// returns the largest such d, the sum of the pairs' distances and their
// number.
func distanceSweep(g *sgraph.Graph) (diam int32, sum, pairs int64) {
	type worker struct {
		sw         *MultiSweep
		diam       int32
		sum, pairs int64
	}
	n := g.NumNodes()
	ids := make([]sgraph.NodeID, n)
	for u := range ids {
		ids[u] = sgraph.NodeID(u)
	}
	blocks := (n + MaxSources - 1) / MaxSources
	workers := make([]worker, min(runtime.GOMAXPROCS(0), blocks))
	container.ParallelFor(blocks, len(workers), func(w, b int) error {
		wk := &workers[w]
		if wk.sw == nil {
			wk.sw = NewMultiSweep(n)
		}
		var bsum, bpairs int64
		for ok := wk.sw.Start(g, ids[b*MaxSources:min((b+1)*MaxSources, n)]); ok; ok = wk.sw.Next() {
			d, level := wk.sw.Level()
			if d == 0 {
				continue
			}
			wk.diam = max(wk.diam, d)
			for _, e := range level {
				k := int64(bits.OnesCount64(e.Pos | e.Neg))
				bsum += int64(d) * k
				bpairs += k
			}
		}
		wk.sum += bsum
		wk.pairs += bpairs
		return nil
	})
	for _, wk := range workers {
		diam = max(diam, wk.diam)
		sum += wk.sum
		pairs += wk.pairs
	}
	return diam, sum, pairs
}
