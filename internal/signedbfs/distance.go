package signedbfs

import (
	"runtime"
	"sync"

	"repro/internal/sgraph"
)

// Distances returns the single-source shortest-path lengths from src,
// ignoring edge signs. Unreachable nodes get Unreachable. It wraps
// DistancesInto with a fresh slice and Scratch.
func Distances(g *sgraph.Graph, src sgraph.NodeID) []int32 {
	return DistancesInto(g, src, nil, NewScratch(g.NumNodes()))
}

// Diameter computes the exact diameter of g — the largest shortest-path
// distance between any two nodes in the same component — by running a
// BFS from every node, fanned out over all CPUs.
func Diameter(g *sgraph.Graph) int32 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	results := make([]int32, workers)
	var next int32
	var wg sync.WaitGroup
	var mu sync.Mutex
	nextSource := func() sgraph.NodeID {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= n {
			return -1
		}
		s := next
		next++
		return s
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := NewScratch(n)
			var dist []int32
			for {
				s := nextSource()
				if s < 0 {
					return
				}
				dist = DistancesInto(g, s, dist, scratch)
				for _, d := range dist {
					if d > results[w] {
						results[w] = d
					}
				}
			}
		}(w)
	}
	wg.Wait()
	diam := int32(0)
	for _, e := range results {
		if e > diam {
			diam = e
		}
	}
	return diam
}

// AverageDistance returns the mean shortest-path distance over all
// ordered reachable pairs (u,v), u≠v, computed exactly with one BFS
// per node. It returns 0 for graphs with no such pairs.
func AverageDistance(g *sgraph.Graph) float64 {
	n := g.NumNodes()
	var sum, cnt int64
	scratch := NewScratch(n)
	var dist []int32
	for s := sgraph.NodeID(0); int(s) < n; s++ {
		dist = DistancesInto(g, s, dist, scratch)
		for v, d := range dist {
			if d > 0 && sgraph.NodeID(v) != s {
				sum += int64(d)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}
