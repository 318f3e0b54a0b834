package signedbfs

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sgraph"
)

// sweepRows runs one MultiSweep from srcs and unpacks it into
// per-source rows: dist[j][v] (Unreachable when no level reached it)
// and the positive/negative shortest-path flags. It also checks the
// sweep's own invariants: levels arrive in depth order, a level's
// fresh bits are disjoint from everything seen before, and Reached
// lists exactly the nodes some source reached.
func sweepRows(t *testing.T, g *sgraph.Graph, sw *MultiSweep, srcs []sgraph.NodeID) (dist [][]int32, pos, neg [][]bool) {
	t.Helper()
	n := g.NumNodes()
	dist = make([][]int32, len(srcs))
	pos = make([][]bool, len(srcs))
	neg = make([][]bool, len(srcs))
	for j := range srcs {
		dist[j] = make([]int32, n)
		for v := range dist[j] {
			dist[j][v] = Unreachable
		}
		pos[j] = make([]bool, n)
		neg[j] = make([]bool, n)
	}
	seen := make([]uint64, n)
	want := int32(0)
	for ok := sw.Start(g, srcs); ok; ok = sw.Next() {
		d, level := sw.Level()
		if d != want {
			t.Fatalf("level depth %d, want %d", d, want)
		}
		want++
		for _, e := range level {
			v, fresh := e.Node, e.Pos|e.Neg
			if fresh == 0 || fresh&seen[v] != 0 {
				t.Fatalf("depth %d node %d: fresh bits %#x overlap seen %#x or are empty", d, v, fresh, seen[v])
			}
			seen[v] |= fresh
			for b := fresh; b != 0; b &= b - 1 {
				j := bits.TrailingZeros64(b)
				dist[j][v] = d
				pos[j][v] = e.Pos&(1<<uint(j)) != 0
				neg[j][v] = e.Neg&(1<<uint(j)) != 0
			}
		}
	}
	reached := 0
	for _, v := range sw.Reached() {
		if seen[v] == 0 {
			t.Fatalf("Reached lists %d, which no level reported", v)
		}
		reached++
	}
	for _, w := range seen {
		if w != 0 {
			reached--
		}
	}
	if reached != 0 {
		t.Fatalf("Reached has %d more entries than nodes seen", reached)
	}
	return dist, pos, neg
}

// TestMultiSweepMatchesPerSource is the property test of the
// bit-parallel sweep: for every source of every block, the distances
// and the positive/negative shortest-path bits must equal
// CountPathsInto's Dist, Pos>0 and Neg>0, and the distances
// DistancesInto's — on random signed graphs (sparse ones with isolated
// nodes and several components included) and a long path whose levels
// run far past 64, for block sizes 1, 2, 63 and 64 with unsorted,
// non-consecutive sources. One MultiSweep serves every graph, so reuse
// across sweeps and growth to larger graphs are covered too.
func TestMultiSweepMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	path := sgraph.NewBuilder(300) // a long path with mixed signs
	for i := 0; i < 299; i++ {
		s := sgraph.Positive
		if rng.Intn(3) == 0 {
			s = sgraph.Negative
		}
		path.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), s)
	}
	graphs := []*sgraph.Graph{path.MustBuild()}
	for trial := 0; trial < 12; trial++ {
		n := 64 + rng.Intn(140)
		m := n / 2 // sparse: isolated nodes and many components
		if trial%3 != 0 {
			m = n + rng.Intn(4*n)
		}
		graphs = append(graphs, randomGraph(rng, n, m, 0.35))
	}
	sw := NewMultiSweep(8)
	scratch := NewScratch(8)
	var res Result
	var plain []int32
	for gi, g := range graphs {
		n := g.NumNodes()
		for _, size := range []int{1, 2, 63, 64} {
			perm := rng.Perm(n)
			for lo := 0; lo+size <= n && lo < 3*64; lo += size {
				srcs := make([]sgraph.NodeID, size)
				for j := range srcs {
					srcs[j] = sgraph.NodeID(perm[lo+j])
				}
				dist, pos, neg := sweepRows(t, g, sw, srcs)
				for j, u := range srcs {
					CountPathsInto(g, u, &res, scratch)
					plain = DistancesInto(g, u, plain, scratch)
					for v := 0; v < n; v++ {
						if dist[j][v] != res.Dist[v] || dist[j][v] != plain[v] {
							t.Fatalf("graph %d size %d src %d: dist to %d = %d, CountPaths %d, Distances %d",
								gi, size, u, v, dist[j][v], res.Dist[v], plain[v])
						}
						if pos[j][v] != (res.Pos[v] > 0) || neg[j][v] != (res.Neg[v] > 0) {
							t.Fatalf("graph %d size %d src %d: signs at %d = (+%v, -%v), CountPaths (%d, %d)",
								gi, size, u, v, pos[j][v], neg[j][v], res.Pos[v], res.Neg[v])
						}
					}
				}
			}
		}
	}
}

// TestMultiSweepDuplicateSources: a node listed twice carries both
// bits, each with the single-source answer.
func TestMultiSweepDuplicateSources(t *testing.T) {
	g := pathGraph(5)
	dist, pos, _ := sweepRows(t, g, NewMultiSweep(5), []sgraph.NodeID{2, 0, 2})
	for v := 0; v < 5; v++ {
		if dist[0][v] != dist[2][v] || pos[0][v] != pos[2][v] {
			t.Fatalf("duplicate source rows differ at %d", v)
		}
	}
	if dist[1][4] != 4 || dist[0][4] != 2 {
		t.Fatalf("dist = %v", dist)
	}
}

// TestMultiSweepStampWrap: a sweep whose level stamp wraps around
// mid-traversal must answer exactly like a fresh one.
func TestMultiSweepStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	g := randomGraph(rng, 120, 400, 0.3)
	srcs := []sgraph.NodeID{5, 77, 3, 119, 40}
	wantDist, wantPos, wantNeg := sweepRows(t, g, NewMultiSweep(120), srcs)
	sw := NewMultiSweep(120)
	sw.stamp = math.MaxUint32 - 2
	dist, pos, neg := sweepRows(t, g, sw, srcs)
	if sw.stamp > 100 {
		t.Fatalf("stamp %d did not wrap", sw.stamp)
	}
	for j := range srcs {
		for v := 0; v < 120; v++ {
			if dist[j][v] != wantDist[j][v] || pos[j][v] != wantPos[j][v] || neg[j][v] != wantNeg[j][v] {
				t.Fatalf("source %d node %d differs after stamp wrap", srcs[j], v)
			}
		}
	}
}

// TestMultiSweepWarmNoAllocs: a warm sweep allocates nothing.
func TestMultiSweepWarmNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	g := randomGraph(rng, 200, 800, 0.3)
	srcs := make([]sgraph.NodeID, MaxSources)
	for j := range srcs {
		srcs[j] = sgraph.NodeID(j * 3)
	}
	sw := NewMultiSweep(g.NumNodes())
	allocs := testing.AllocsPerRun(20, func() {
		for ok := sw.Start(g, srcs); ok; ok = sw.Next() {
		}
	})
	if allocs != 0 {
		t.Fatalf("warm sweep: %v allocs/run, want 0", allocs)
	}
}
