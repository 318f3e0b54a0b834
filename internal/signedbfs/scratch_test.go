package signedbfs

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/sgraph"
)

func randomSignedGraph(rng *rand.Rand, n, m int, negFrac float64) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if rng.Float64() < negFrac {
			s = sgraph.Negative
		}
		b.AddEdge(u, v, s)
	}
	return b.MustBuild()
}

// TestCountPathsIntoMatchesFresh: a single (Result, Scratch) pair
// reused across every source of several random graphs — including
// disconnected ones, whose stale unreached entries the epoch stamps
// must reset — always reproduces the fresh CountPaths output exactly.
func TestCountPathsIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var res Result
	var scratch *Scratch
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(40)
		// Sparse graphs are frequently disconnected, exercising the
		// unreached-node cleanup between reuses.
		g := randomSignedGraph(rng, n, n+rng.Intn(3*n), 0.3)
		if scratch == nil {
			scratch = NewScratch(g.NumNodes())
		}
		for src := sgraph.NodeID(0); int(src) < n; src++ {
			want := CountPaths(g, src)
			got := CountPathsInto(g, src, &res, scratch)
			if got.Source != want.Source || got.SaturatedAt != want.SaturatedAt {
				t.Fatalf("trial %d src %d: header mismatch", trial, src)
			}
			for v := 0; v < n; v++ {
				if got.Dist[v] != want.Dist[v] || got.Pos[v] != want.Pos[v] || got.Neg[v] != want.Neg[v] {
					t.Fatalf("trial %d src %d node %d: got (d=%d,p=%d,n=%d) want (d=%d,p=%d,n=%d)",
						trial, src, v,
						got.Dist[v], got.Pos[v], got.Neg[v],
						want.Dist[v], want.Pos[v], want.Neg[v])
				}
			}
		}
	}
}

// TestDistancesIntoMatchesFresh is the sign-oblivious counterpart of
// the property above.
func TestDistancesIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var dist []int32
	scratch := NewScratch(0)
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(40)
		g := randomSignedGraph(rng, n, n+rng.Intn(3*n), 0.3)
		for src := sgraph.NodeID(0); int(src) < n; src++ {
			want := Distances(g, src)
			dist = DistancesInto(g, src, dist, scratch)
			for v := 0; v < n; v++ {
				if dist[v] != want[v] {
					t.Fatalf("trial %d src %d node %d: got %d want %d", trial, src, v, dist[v], want[v])
				}
			}
		}
	}
}

// TestCountPathsIntoWarmZeroAllocs: the acceptance criterion of the
// zero-allocation engine — a warm (Result, Scratch) pair traverses
// without touching the heap.
func TestCountPathsIntoWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randomSignedGraph(rng, 200, 800, 0.3)
	var res Result
	scratch := NewScratch(g.NumNodes())
	CountPathsInto(g, 0, &res, scratch) // warm the buffers
	src := sgraph.NodeID(0)
	allocs := testing.AllocsPerRun(50, func() {
		CountPathsInto(g, src, &res, scratch)
		src = (src + 7) % sgraph.NodeID(g.NumNodes())
	})
	if allocs != 0 {
		t.Fatalf("warm CountPathsInto allocates %.1f objects/op, want 0", allocs)
	}
	var dist []int32
	dist = DistancesInto(g, 0, dist, scratch)
	allocs = testing.AllocsPerRun(50, func() {
		dist = DistancesInto(g, src, dist, scratch)
		src = (src + 7) % sgraph.NodeID(g.NumNodes())
	})
	if allocs != 0 {
		t.Fatalf("warm DistancesInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScratchGrowsAcrossGraphs: a scratch sized for a small graph must
// transparently serve a larger one.
func TestScratchGrowsAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	small := randomSignedGraph(rng, 6, 12, 0.3)
	big := randomSignedGraph(rng, 120, 500, 0.3)
	scratch := NewScratch(small.NumNodes())
	var res Result
	CountPathsInto(small, 0, &res, scratch)
	got := CountPathsInto(big, 3, &res, scratch)
	want := CountPaths(big, 3)
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Pos[v] != want.Pos[v] || got.Neg[v] != want.Neg[v] {
			t.Fatalf("node %d mismatch after scratch growth", v)
		}
	}
}

// TestScratchSpansWholeCacheLines: per-worker scratches are allocated
// back to back and their queue indices are written on every push and
// pop, so a Scratch must fill whole cache lines (and land in the
// 128-byte size class, whose slots the allocator aligns) to keep two
// workers off a shared line.
func TestScratchSpansWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Scratch{}); size != 128 {
		t.Fatalf("Scratch is %d bytes, want 128 (two cache lines)", size)
	}
}
