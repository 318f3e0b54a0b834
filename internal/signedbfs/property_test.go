package signedbfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sgraph"
)

// TestCountsSymmetric: on an undirected signed graph, reversing a
// shortest path preserves its length and sign, so the per-pair counts
// must be symmetric: N±(u→v) == N±(v→u).
func TestCountsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := randomGraph(rng, n, 3*n, 0.3)
		results := make([]*Result, n)
		for u := 0; u < n; u++ {
			results[u] = CountPaths(g, sgraph.NodeID(u))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				ru, rv := results[u], results[v]
				if ru.Dist[v] != rv.Dist[u] {
					return false
				}
				if ru.Pos[v] != rv.Pos[u] || ru.Neg[v] != rv.Neg[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDistTriangleInequality: BFS distances satisfy
// d(u,w) ≤ d(u,v) + d(v,w) whenever all three are finite.
func TestDistTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		g := randomGraph(rng, n, 3*n, 0.3)
		dist := make([][]int32, n)
		for u := 0; u < n; u++ {
			dist[u] = Distances(g, sgraph.NodeID(u))
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					duv, dvw, duw := dist[u][v], dist[v][w], dist[u][w]
					if duv == Unreachable || dvw == Unreachable {
						continue
					}
					if duw == Unreachable || duw > duv+dvw {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsLowerBoundReachability: every reachable node has at least
// one shortest path (Pos+Neg ≥ 1), and unreachable nodes have none.
func TestCountsLowerBoundReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := randomGraph(rng, n, 2*n, 0.4)
		src := sgraph.NodeID(rng.Intn(n))
		r := CountPaths(g, src)
		for v := 0; v < n; v++ {
			total := r.Pos[v] + r.Neg[v]
			if r.Dist[v] != Unreachable {
				if total == 0 {
					return false
				}
			} else if total != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
