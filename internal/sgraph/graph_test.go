package sgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle returns the unbalanced triangle 0−1−2 with one negative edge.
func triangle() *Graph {
	return MustFromEdges(3, []Edge{
		{0, 1, Positive},
		{1, 2, Positive},
		{0, 2, Negative},
	})
}

func TestBuilderBasics(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
	if g.NumNegativeEdges() != 1 || g.NumPositiveEdges() != 2 {
		t.Fatalf("got %d neg %d pos, want 1/2", g.NumNegativeEdges(), g.NumPositiveEdges())
	}
	for _, tc := range []struct {
		u, v NodeID
		s    Sign
		ok   bool
	}{
		{0, 1, Positive, true},
		{1, 0, Positive, true},
		{1, 2, Positive, true},
		{0, 2, Negative, true},
		{2, 0, Negative, true},
		{1, 1, 0, false},
	} {
		s, ok := g.EdgeSign(tc.u, tc.v)
		if ok != tc.ok || (ok && s != tc.s) {
			t.Errorf("EdgeSign(%d,%d) = %v,%v want %v,%v", tc.u, tc.v, s, ok, tc.s, tc.ok)
		}
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatal("triangle degrees should all be 2")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1, Positive)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a self-loop")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 2, Positive)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an out-of-range edge")
	}
	b = NewBuilder(2)
	b.AddEdge(-1, 0, Positive)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a negative node id")
	}
}

func TestBuilderRejectsInvalidSign(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted sign 0")
	}
	b = NewBuilder(2)
	b.AddEdge(0, 1, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted sign 3")
	}
}

func TestBuilderDuplicateEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, Positive)
	b.AddEdge(1, 0, Positive) // same edge, same sign: idempotent
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}

	b = NewBuilder(2)
	b.AddEdge(0, 1, Positive)
	b.AddEdge(1, 0, Negative) // contradictory sign
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an edge with both signs")
	}
}

func TestBuilderStickyError(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, Positive) // error
	b.AddEdge(0, 1, Positive) // must be ignored after error
	if _, err := b.Build(); err == nil {
		t.Fatal("sticky error lost")
	}
}

func TestBuilderAddNode(t *testing.T) {
	b := NewBuilder(0)
	u := b.AddNode()
	v := b.AddNode()
	if u != 0 || v != 1 {
		t.Fatalf("AddNode ids = %d,%d want 0,1", u, v)
	}
	b.AddEdge(u, v, Negative)
	g := b.MustBuild()
	if g.NumNodes() != 2 || g.NumNegativeEdges() != 1 {
		t.Fatalf("unexpected graph %v", g)
	}
}

func TestNeighborsSortedAndSigned(t *testing.T) {
	g := MustFromEdges(5, []Edge{
		{0, 4, Negative},
		{0, 2, Positive},
		{0, 1, Positive},
		{0, 3, Negative},
	})
	ids := g.NeighborIDs(0)
	signs := g.NeighborSigns(0)
	wantIDs := []NodeID{1, 2, 3, 4}
	wantSigns := []Sign{Positive, Positive, Negative, Negative}
	if len(ids) != 4 {
		t.Fatalf("degree = %d, want 4", len(ids))
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] || signs[i] != wantSigns[i] {
			t.Fatalf("neighbour %d = (%d,%v), want (%d,%v)", i, ids[i], signs[i], wantIDs[i], wantSigns[i])
		}
	}
	// Early-exit iteration.
	visited := 0
	g.Neighbors(0, func(v NodeID, s Sign) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Fatalf("early exit visited %d, want 2", visited)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := triangle()
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges len = %d, want 3", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && (edges[i-1].U > e.U || (edges[i-1].U == e.U && edges[i-1].V > e.V)) {
			t.Fatalf("edges not sorted at %d", i)
		}
	}
}

func TestSignString(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" || Sign(0).String() != "?" {
		t.Fatal("Sign.String mismatch")
	}
	if !Positive.Valid() || !Negative.Valid() || Sign(0).Valid() || Sign(2).Valid() {
		t.Fatal("Sign.Valid mismatch")
	}
}

// TestGraphRoundTripsEdges is a property test: any set of generated
// edges builds into a graph that reports exactly those edges back.
func TestGraphRoundTripsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		want := map[[2]NodeID]Sign{}
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			key := edgeKey(u, v)
			s, dup := want[key]
			if !dup {
				s = Positive
				if rng.Intn(2) == 0 {
					s = Negative
				}
				want[key] = s
			}
			b.AddEdge(u, v, s)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		got := g.Edges()
		if len(got) != len(want) {
			return false
		}
		for _, e := range got {
			if want[[2]NodeID{e.U, e.V}] != e.Sign {
				return false
			}
		}
		// Spot-check EdgeSign symmetry for all pairs.
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				if u == v {
					continue
				}
				s1, ok1 := g.EdgeSign(u, v)
				s2, ok2 := g.EdgeSign(v, u)
				if ok1 != ok2 || s1 != s2 {
					return false
				}
				ws, wok := want[edgeKey(u, v)]
				if ok1 != wok || (ok1 && s1 != ws) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v && !b.HasEdge(u, v) {
				s := Positive
				if rng.Intn(3) == 0 {
					s = Negative
				}
				b.AddEdge(u, v, s)
			}
		}
		g := b.MustBuild()
		sum := 0
		for u := NodeID(0); int(u) < n; u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeSignSmallAndLargeDegree: the linear-scan fast path for
// small-degree nodes and the binary search for high-degree nodes must
// agree with a reference walk of the adjacency list, on both sides of
// the smallDegreeScan threshold.
func TestEdgeSignSmallAndLargeDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// A star whose hub exceeds the scan threshold while every leaf sits
	// below it, plus random extra edges among the leaves.
	const n = 3 * smallDegreeScan
	b := NewBuilder(n)
	for v := NodeID(1); int(v) < n; v++ {
		s := Positive
		if v%3 == 0 {
			s = Negative
		}
		b.AddEdge(0, v, s)
	}
	for i := 0; i < n; i++ {
		u, v := NodeID(1+rng.Intn(n-1)), NodeID(1+rng.Intn(n-1))
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v, Positive)
		}
	}
	g := b.MustBuild()
	if g.Degree(0) <= smallDegreeScan {
		t.Fatalf("hub degree %d does not exercise the search path", g.Degree(0))
	}
	for u := NodeID(0); int(u) < n; u++ {
		want := map[NodeID]Sign{}
		g.Neighbors(u, func(v NodeID, s Sign) bool {
			want[v] = s
			return true
		})
		for v := NodeID(0); int(v) < n; v++ {
			s, ok := g.EdgeSign(u, v)
			ws, wok := want[v]
			if ok != wok || (ok && s != ws) {
				t.Fatalf("EdgeSign(%d,%d) = (%v,%v), want (%v,%v)", u, v, s, ok, ws, wok)
			}
		}
	}
}

// TestRelabel: a relabelled copy has edge (i, j) with sign s exactly
// when the original has edge (order[i], order[j]) with sign s, keeps
// the edge counts, and lists every adjacency in increasing id order.
func TestRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v || b.HasEdge(u, v) {
				continue
			}
			s := Positive
			if rng.Intn(3) == 0 {
				s = Negative
			}
			b.AddEdge(u, v, s)
		}
		g := b.MustBuild()
		order := make([]NodeID, n)
		for i, p := range rng.Perm(n) {
			order[i] = NodeID(p)
		}
		r := g.Relabel(order)
		if r.NumNodes() != n || r.NumEdges() != g.NumEdges() || r.NumNegativeEdges() != g.NumNegativeEdges() {
			t.Fatalf("trial %d: relabelled %v from %v", trial, r, g)
		}
		for i := NodeID(0); int(i) < n; i++ {
			ids := r.NeighborIDs(i)
			if r.Degree(i) != g.Degree(order[i]) {
				t.Fatalf("trial %d: node %d has degree %d, want %d", trial, i, r.Degree(i), g.Degree(order[i]))
			}
			for e, j := range ids {
				if e > 0 && ids[e-1] >= j {
					t.Fatalf("trial %d: node %d's adjacency %v is not sorted", trial, i, ids)
				}
				if s, ok := g.EdgeSign(order[i], order[j]); !ok || s != r.NeighborSigns(i)[e] {
					t.Fatalf("trial %d: edge (%d,%d) sign %v, original (%d,%d) has %v, %v",
						trial, i, j, r.NeighborSigns(i)[e], order[i], order[j], s, ok)
				}
			}
		}
	}
}
