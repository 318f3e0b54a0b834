package signedbfs

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sgraph"
)

// sweepRows runs one MultiSweep from srcs and unpacks it into
// per-source rows: dist[j][v] (Unreachable when no level reached it)
// and the positive/negative shortest-path flags. With counting it runs
// StartCounting and also returns cnt[j][v], source j's path counters
// at v read at the level that reached it (zero when none did). It
// checks the sweep's own invariants: levels arrive in depth order, a
// level's fresh bits are disjoint from everything seen before, a
// counted lane's non-zero counters are exactly its sign bits, and
// Reached lists exactly the nodes some source reached.
func sweepRows(t *testing.T, g *sgraph.Graph, sw *MultiSweep, srcs []sgraph.NodeID, counting bool) (dist [][]int32, pos, neg [][]bool, cnt [][]PathCount) {
	t.Helper()
	n := g.NumNodes()
	dist = make([][]int32, len(srcs))
	pos = make([][]bool, len(srcs))
	neg = make([][]bool, len(srcs))
	if counting {
		cnt = make([][]PathCount, len(srcs))
	}
	for j := range srcs {
		if counting {
			cnt[j] = make([]PathCount, n)
		}
		dist[j] = make([]int32, n)
		for v := range dist[j] {
			dist[j][v] = Unreachable
		}
		pos[j] = make([]bool, n)
		neg[j] = make([]bool, n)
	}
	seen := make([]uint64, n)
	want := int32(0)
	start := sw.Start
	if counting {
		start = sw.StartCounting
	}
	for ok := start(g, srcs); ok; ok = sw.Next() {
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
				if counting {
					c := sw.Counts(v)[j]
					if (c.Pos > 0) != pos[j][v] || (c.Neg > 0) != neg[j][v] {
						t.Fatalf("depth %d node %d lane %d: counts (%d, %d) disagree with sign bits (+%v, -%v)",
							d, v, j, c.Pos, c.Neg, pos[j][v], neg[j][v])
					}
					cnt[j][v] = c
				}
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
	return dist, pos, neg, cnt
}

// checkCounts fails unless every counted lane of one sweep equals
// CountPathsInto's (Pos, Neg) from that lane's source exactly.
func checkCounts(t *testing.T, label string, g *sgraph.Graph, srcs []sgraph.NodeID, cnt [][]PathCount, res *Result, scratch *Scratch) {
	t.Helper()
	for j, u := range srcs {
		CountPathsInto(g, u, res, scratch)
		for v := range cnt[j] {
			if got := cnt[j][v]; got.Pos != res.Pos[v] || got.Neg != res.Neg[v] {
				t.Fatalf("%s src %d: counts at %d = (%d, %d), CountPaths (%d, %d)",
					label, u, v, got.Pos, got.Neg, res.Pos[v], res.Neg[v])
			}
		}
	}
}

// TestMultiSweepMatchesPerSource is the property test of the
// bit-parallel sweep: for every source of every block, the distances
// and the positive/negative shortest-path bits must equal
// CountPathsInto's Dist, Pos>0 and Neg>0, and the distances
// DistancesInto's; in counting mode the same sweep's flags must not
// change and every (source, node) counter pair must equal
// CountPathsInto's (Pos, Neg) exactly. The inputs are random signed
// graphs (sparse ones with isolated nodes and several components
// included), a long path whose levels run far past 64, and 70-diamond
// chains of mixed signs whose 2^70 paths saturate the counters, for
// block sizes 1, 2, 63 and 64 with unsorted, non-consecutive sources.
// One MultiSweep serves every graph and both modes, so reuse across
// sweeps and modes, growth to larger graphs, and counter lanes laid
// out for a 64-source block and then reused by smaller ones (the next
// graph's blocks of 1 and 2) are covered too.
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
	for _, negEvery := range []int{0, 2, 3} {
		graphs = append(graphs, diamondChain(70, negEvery))
	}
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
				dist, pos, neg, _ := sweepRows(t, g, sw, srcs, false)
				cDist, cPos, cNeg, cnt := sweepRows(t, g, sw, srcs, true)
				for j := range srcs {
					for v := 0; v < n; v++ {
						if cDist[j][v] != dist[j][v] || cPos[j][v] != pos[j][v] || cNeg[j][v] != neg[j][v] {
							t.Fatalf("graph %d size %d src %d: counting sweep differs at %d", gi, size, srcs[j], v)
						}
					}
				}
				checkCounts(t, fmt.Sprintf("graph %d size %d", gi, size), g, srcs, cnt, &res, scratch)
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
// bits, each with the single-source answer — its counters too, on a
// path and on a saturating diamond chain.
func TestMultiSweepDuplicateSources(t *testing.T) {
	g := pathGraph(5)
	dist, pos, _, _ := sweepRows(t, g, NewMultiSweep(5), []sgraph.NodeID{2, 0, 2}, false)
	for v := 0; v < 5; v++ {
		if dist[0][v] != dist[2][v] || pos[0][v] != pos[2][v] {
			t.Fatalf("duplicate source rows differ at %d", v)
		}
	}
	if dist[1][4] != 4 || dist[0][4] != 2 {
		t.Fatalf("dist = %v", dist)
	}
	var res Result
	for _, g := range []*sgraph.Graph{g, diamondChain(70, 2)} {
		srcs := []sgraph.NodeID{2, 0, 2, 0}
		_, _, _, cnt := sweepRows(t, g, NewMultiSweep(g.NumNodes()), srcs, true)
		checkCounts(t, "duplicates", g, srcs, cnt, &res, NewScratch(g.NumNodes()))
	}
}

// TestMultiSweepStampWrap: a sweep whose level stamp wraps around
// mid-traversal must answer exactly like a fresh one, in both modes;
// the counting one must still match CountPathsInto.
func TestMultiSweepStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	g := randomGraph(rng, 120, 400, 0.3)
	srcs := []sgraph.NodeID{5, 77, 3, 119, 40}
	wantDist, wantPos, wantNeg, _ := sweepRows(t, g, NewMultiSweep(120), srcs, false)
	for _, counting := range []bool{false, true} {
		sw := NewMultiSweep(120)
		sw.stamp = math.MaxUint32 - 2
		dist, pos, neg, cnt := sweepRows(t, g, sw, srcs, counting)
		if sw.stamp > 100 {
			t.Fatalf("stamp %d did not wrap", sw.stamp)
		}
		for j := range srcs {
			for v := 0; v < 120; v++ {
				if dist[j][v] != wantDist[j][v] || pos[j][v] != wantPos[j][v] || neg[j][v] != wantNeg[j][v] {
					t.Fatalf("counting=%v: source %d node %d differs after stamp wrap", counting, srcs[j], v)
				}
			}
		}
		if counting {
			checkCounts(t, "stamp wrap", g, srcs, cnt, &Result{}, NewScratch(120))
		}
	}
}

// TestMultiSweepWarmNoAllocs: a warm sweep allocates nothing, plain
// or counting (its first counting sweep sizes the counter slab, which
// serves any later block of at most as many sources).
func TestMultiSweepWarmNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	g := randomGraph(rng, 200, 800, 0.3)
	srcs := make([]sgraph.NodeID, MaxSources)
	for j := range srcs {
		srcs[j] = sgraph.NodeID(j * 3)
	}
	sw := NewMultiSweep(g.NumNodes())
	for ok := sw.StartCounting(g, srcs); ok; ok = sw.Next() {
	}
	allocs := testing.AllocsPerRun(20, func() {
		for ok := sw.Start(g, srcs); ok; ok = sw.Next() {
		}
		for ok := sw.StartCounting(g, srcs); ok; ok = sw.Next() {
		}
		for ok := sw.StartCounting(g, srcs[:5]); ok; ok = sw.Next() {
		}
	})
	if allocs != 0 {
		t.Fatalf("warm sweep: %v allocs/run, want 0", allocs)
	}
}
