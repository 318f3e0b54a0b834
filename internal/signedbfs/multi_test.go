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
// StartCounting and also returns cnt[j][v], source j's packed counter
// lane at v read at the level that reached it (zero when none did). It
// checks the sweep's own invariants: levels arrive in depth order, a
// level's fresh bits are disjoint from everything seen before, while
// the sweep has not overflowed a counted lane's non-zero halves are
// exactly its sign bits and Majority holds its lane where Pos ≥ Neg,
// and the sweep's touched list holds exactly the nodes some source
// reached.
func sweepRows(t *testing.T, g *sgraph.Graph, sw *MultiSweep, srcs []sgraph.NodeID, counting bool) (dist [][]int32, pos, neg [][]bool, cnt [][]uint64) {
	t.Helper()
	n := g.NumNodes()
	dist = make([][]int32, len(srcs))
	pos = make([][]bool, len(srcs))
	neg = make([][]bool, len(srcs))
	if counting {
		cnt = make([][]uint64, len(srcs))
	}
	for j := range srcs {
		if counting {
			cnt[j] = make([]uint64, n)
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
					c := sw.counts[int(v)*sw.lanes+j]
					if !sw.Overflowed() && ((uint32(c) > 0) != pos[j][v] || (c>>32 > 0) != neg[j][v]) {
						t.Fatalf("depth %d node %d lane %d: counts (%d, %d) disagree with sign bits (+%v, -%v)",
							d, v, j, uint32(c), c>>32, pos[j][v], neg[j][v])
					}
					maj := sw.Majority(v, fresh)&(1<<uint(j)) != 0
					if !sw.Overflowed() && maj != (uint32(c) >= uint32(c>>32)) {
						t.Fatalf("depth %d node %d lane %d: Majority %v, counts (%d, %d)", d, v, j, maj, uint32(c), c>>32)
					}
					cnt[j][v] = c
				}
			}
		}
	}
	reached := 0
	for _, v := range sw.touched[:sw.nTouched] {
		if seen[v] == 0 {
			t.Fatalf("touched lists %d, which no level reported", v)
		}
		reached++
	}
	for _, w := range seen {
		if w != 0 {
			reached--
		}
	}
	if reached != 0 {
		t.Fatalf("touched has %d more entries than nodes seen", reached)
	}
	return dist, pos, neg, cnt
}

// checkCounts checks one counting sweep's lanes against
// CountPathsInto from each lane's source: the sweep must report
// overflowed exactly when some reached lane's true Pos or Neg is at
// least 2^31, and unless it did, every lane must equal
// Pos | Neg<<32 exactly.
func checkCounts(t *testing.T, label string, g *sgraph.Graph, srcs []sgraph.NodeID, cnt [][]uint64, overflowed bool, res *Result, scratch *Scratch) {
	t.Helper()
	big := false
	for j, u := range srcs {
		CountPathsInto(g, u, res, scratch)
		for v := range cnt[j] {
			big = big || res.Pos[v] >= 1<<31 || res.Neg[v] >= 1<<31
			if overflowed {
				continue
			}
			if got, want := cnt[j][v], res.Pos[v]|res.Neg[v]<<32; got != want {
				t.Fatalf("%s src %d: counts at %d = (%d, %d), CountPaths (%d, %d)",
					label, u, v, uint32(got), got>>32, res.Pos[v], res.Neg[v])
			}
		}
	}
	if overflowed != big {
		t.Fatalf("%s: Overflowed() = %v, but some true count reaches 2^31: %v", label, overflowed, big)
	}
}

// TestMultiSweepMajorityTie pins Majority's ≥ at a tie: source 0
// reaches node 2 of a 4-cycle with one negative edge along one path of
// each sign (Pos = Neg = 1, so the pair is compatible), and source 4
// reaches node 8 across a fan of two negative branches and a positive
// one (Pos 1 < Neg 2, so it is not). sweepRows checks Majority on
// every lane the levels report, these two included.
func TestMultiSweepMajorityTie(t *testing.T) {
	b := sgraph.NewBuilder(9)
	b.AddEdge(0, 1, sgraph.Positive)
	b.AddEdge(1, 2, sgraph.Positive)
	b.AddEdge(2, 3, sgraph.Positive)
	b.AddEdge(3, 0, sgraph.Negative)
	for mid, s := range []sgraph.Sign{sgraph.Negative, sgraph.Negative, sgraph.Positive} {
		b.AddEdge(4, sgraph.NodeID(5+mid), s)
		b.AddEdge(sgraph.NodeID(5+mid), 8, sgraph.Positive)
	}
	g := b.MustBuild()
	srcs := []sgraph.NodeID{0, 4}
	sw := NewMultiSweep(g.NumNodes())
	_, _, _, cnt := sweepRows(t, g, sw, srcs, true)
	checkCounts(t, "tie", g, srcs, cnt, sw.Overflowed(), &Result{}, NewScratch(g.NumNodes()))
	if c := cnt[0][2]; c != 1|1<<32 {
		t.Fatalf("source 0 at node 2: counts (%d, %d), want the tie (1, 1)", uint32(c), c>>32)
	}
	if c := cnt[1][8]; c != 1|2<<32 {
		t.Fatalf("source 4 at node 8: counts (%d, %d), want (1, 2)", uint32(c), c>>32)
	}
}

// boundaryChain builds a chain of k+1 diamonds from node 0: first a
// fan of three two-edge branches whose first edges are negative,
// negative and positive, mapping a source's counts (1, 0) to (1, 2),
// then k all-positive two-branch diamonds, each doubling both counts.
// From node 0 the last node is reached along 2^k positive and 2^(k+1)
// negative shortest paths: the negative count crosses 2^31 first.
func boundaryChain(k int) *sgraph.Graph {
	b := sgraph.NewBuilder(5 + 3*k)
	for mid, s := range []sgraph.Sign{sgraph.Negative, sgraph.Negative, sgraph.Positive} {
		b.AddEdge(0, sgraph.NodeID(mid+1), s)
		b.AddEdge(sgraph.NodeID(mid+1), 4, sgraph.Positive)
	}
	for i := 0; i < k; i++ {
		in := sgraph.NodeID(4 + 3*i)
		top, bot, out := in+1, in+2, in+3
		b.AddEdge(in, top, sgraph.Positive)
		b.AddEdge(in, bot, sgraph.Positive)
		b.AddEdge(top, out, sgraph.Positive)
		b.AddEdge(bot, out, sgraph.Positive)
	}
	return b.MustBuild()
}

// TestMultiSweepOverflowBoundary pins the packed lanes' limit from
// node 0 of each chain: 2^30 positive paths are counted exactly, 2^31
// set Overflowed, and so does a negative count of 2^31 beside a
// positive one of 2^30, while 2^30 negative beside 2^29 positive do
// not.
func TestMultiSweepOverflowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *sgraph.Graph
		pos, neg uint64
		over     bool
	}{
		{"pos2^30", diamondChain(30, 0), 1 << 30, 0, false},
		{"pos2^31", diamondChain(31, 0), 1 << 31, 0, true},
		{"neg2^30", boundaryChain(29), 1 << 29, 1 << 30, false},
		{"neg2^31", boundaryChain(30), 1 << 30, 1 << 31, true},
	} {
		srcs := []sgraph.NodeID{0}
		sw := NewMultiSweep(tc.g.NumNodes())
		_, _, _, cnt := sweepRows(t, tc.g, sw, srcs, true)
		if sw.Overflowed() != tc.over {
			t.Fatalf("%s: Overflowed() = %v, want %v", tc.name, sw.Overflowed(), tc.over)
		}
		res := CountPaths(tc.g, 0)
		end := tc.g.NumNodes() - 1
		if res.Pos[end] != tc.pos || res.Neg[end] != tc.neg {
			t.Fatalf("%s: CountPaths at the end = (%d, %d), want (%d, %d)", tc.name, res.Pos[end], res.Neg[end], tc.pos, tc.neg)
		}
		if !tc.over && cnt[0][end] != tc.pos|tc.neg<<32 {
			t.Fatalf("%s: lane at the end = %#x, want (%d, %d)", tc.name, cnt[0][end], tc.pos, tc.neg)
		}
		checkCounts(t, tc.name, tc.g, srcs, cnt, sw.Overflowed(), &Result{}, NewScratch(tc.g.NumNodes()))
	}
}

// TestMultiSweepMatchesPerSource is the property test of the
// bit-parallel sweep: for every source of every block, the distances
// and the positive/negative shortest-path bits must equal
// CountPathsInto's Dist, Pos>0 and Neg>0, and the distances
// DistancesInto's; in counting mode the same sweep's flags must not
// change, the sweep must report Overflowed exactly when some true
// count reaches 2^31, and unless it does every (source, node) lane
// must equal CountPathsInto's (Pos, Neg) exactly. The inputs are
// random signed graphs (sparse ones with isolated nodes and several
// components included), a long path whose levels run far past 64,
// 70-diamond chains of mixed signs whose 2^70 paths saturate
// CountPathsInto's counters, and the chains at the lanes' boundary:
// 30 and 31 positive diamonds (2^30 paths exact, 2^31 flagged) and a
// mixed-sign chain whose negative count crosses 2^31 first — for
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
	graphs = append(graphs, diamondChain(30, 0), diamondChain(31, 0), boundaryChain(30))
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
				checkCounts(t, fmt.Sprintf("graph %d size %d", gi, size), g, srcs, cnt, sw.Overflowed(), &res, scratch)
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
// path and on a saturating diamond chain (where both lanes overflow).
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
		sw := NewMultiSweep(g.NumNodes())
		_, _, _, cnt := sweepRows(t, g, sw, srcs, true)
		checkCounts(t, "duplicates", g, srcs, cnt, sw.Overflowed(), &res, NewScratch(g.NumNodes()))
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
			checkCounts(t, "stamp wrap", g, srcs, cnt, sw.Overflowed(), &Result{}, NewScratch(120))
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
