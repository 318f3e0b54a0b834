package balance

import (
	"math/rand"
	"testing"

	"repro/internal/sgraph"
)

func edge(u, v sgraph.NodeID, s sgraph.Sign) sgraph.Edge {
	return sgraph.Edge{U: u, V: v, Sign: s}
}

func TestIsBalancedTriangles(t *testing.T) {
	cases := []struct {
		name  string
		signs [3]sgraph.Sign
		want  bool
	}{
		{"+++", [3]sgraph.Sign{1, 1, 1}, true},
		{"+--", [3]sgraph.Sign{1, -1, -1}, true},
		{"++-", [3]sgraph.Sign{1, 1, -1}, false},
		{"---", [3]sgraph.Sign{-1, -1, -1}, false},
	}
	for _, tc := range cases {
		g := sgraph.MustFromEdges(3, []sgraph.Edge{
			edge(0, 1, tc.signs[0]), edge(1, 2, tc.signs[1]), edge(0, 2, tc.signs[2]),
		})
		if got := IsBalanced(g); got != tc.want {
			t.Errorf("%s: IsBalanced = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIsBalancedAcyclicAlwaysBalanced(t *testing.T) {
	// Any forest is balanced regardless of signs.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := sgraph.NewBuilder(n)
		for v := 1; v < n; v++ {
			parent := sgraph.NodeID(rng.Intn(v))
			s := sgraph.Positive
			if rng.Intn(2) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(parent, sgraph.NodeID(v), s)
		}
		if !IsBalanced(b.MustBuild()) {
			t.Fatal("a tree must be balanced")
		}
	}
}

// plantedTwoCamp builds a balanced graph: two camps, positive inside,
// negative across.
func plantedTwoCamp(rng *rand.Rand, n, m int) (*sgraph.Graph, []uint8) {
	camp := make([]uint8, n)
	for i := range camp {
		camp[i] = uint8(rng.Intn(2))
	}
	b := sgraph.NewBuilder(n)
	for len := 0; len < m; len++ {
		u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if camp[u] != camp[v] {
			s = sgraph.Negative
		}
		b.AddEdge(u, v, s)
	}
	return b.MustBuild(), camp
}

func TestIsBalancedPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g, _ := plantedTwoCamp(rng, 30+rng.Intn(50), 200)
		if !IsBalanced(g) {
			t.Fatal("planted two-camp graph must be balanced")
		}
	}
}

func TestCampsCertifyBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g, _ := plantedTwoCamp(rng, 40, 150)
		camps, ok := Camps(g)
		if !ok {
			t.Fatal("Camps failed on a balanced graph")
		}
		for _, e := range g.Edges() {
			same := camps[e.U] == camps[e.V]
			if same != (e.Sign == sgraph.Positive) {
				t.Fatalf("camps violate edge %+v", e)
			}
		}
	}
}

func TestCampsUnbalanced(t *testing.T) {
	g := sgraph.MustFromEdges(3, []sgraph.Edge{
		edge(0, 1, sgraph.Positive), edge(1, 2, sgraph.Positive), edge(0, 2, sgraph.Negative),
	})
	if _, ok := Camps(g); ok {
		t.Fatal("Camps succeeded on an unbalanced graph")
	}
}

func TestFrustrationBalancedIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := plantedTwoCamp(rng, 50, 200)
	if f := Frustration(g); f != 0 {
		t.Fatalf("Frustration = %d on a balanced graph, want 0", f)
	}
}

func TestFrustrationSingleBadTriangle(t *testing.T) {
	g := sgraph.MustFromEdges(3, []sgraph.Edge{
		edge(0, 1, sgraph.Positive), edge(1, 2, sgraph.Positive), edge(0, 2, sgraph.Negative),
	})
	if f := Frustration(g); f != 1 {
		t.Fatalf("Frustration = %d, want 1", f)
	}
}

func TestFrustrationUpperBoundsNoise(t *testing.T) {
	// Flip k edges of a balanced graph: frustration ≤ k (flipping them
	// back certifies it), and our heuristic must respect the bound.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g, _ := plantedTwoCamp(rng, 40, 160)
		edges := g.Edges()
		if len(edges) < 10 {
			continue
		}
		k := 1 + rng.Intn(4)
		flipped := map[int]bool{}
		for len(flipped) < k {
			flipped[rng.Intn(len(edges))] = true
		}
		b := sgraph.NewBuilder(g.NumNodes())
		for i, e := range edges {
			s := e.Sign
			if flipped[i] {
				s = -s
			}
			b.AddEdge(e.U, e.V, s)
		}
		noisy := b.MustBuild()
		if f := Frustration(noisy); f > k {
			t.Fatalf("trial %d: Frustration = %d > %d flipped edges", trial, f, k)
		}
	}
}

// bruteBalanced checks balance of the subgraph induced by nodes via
// exhaustive two-colouring (n ≤ ~20).
func bruteBalanced(g *sgraph.Graph, nodes []sgraph.NodeID) bool {
	k := len(nodes)
	idx := map[sgraph.NodeID]int{}
	for i, u := range nodes {
		idx[u] = i
	}
	for mask := 0; mask < 1<<k; mask++ {
		ok := true
	check:
		for i, u := range nodes {
			ids := g.NeighborIDs(u)
			signs := g.NeighborSigns(u)
			for t2, v := range ids {
				j, in := idx[v]
				if !in || j <= i {
					continue
				}
				same := (mask>>i)&1 == (mask>>j)&1
				if same != (signs[t2] == sgraph.Positive) {
					ok = false
					break check
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestIsBalancedSubgraphWholeGraphAgrees checks IsBalanced against the
// exhaustive two-colouring of the subgraph induced by every node.
func TestIsBalancedSubgraphWholeGraphAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(12) // bruteBalanced tries all 2^n colourings
		b := sgraph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
			if u == v || b.HasEdge(u, v) {
				continue
			}
			s := sgraph.Positive
			if rng.Intn(2) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(u, v, s)
		}
		g := b.MustBuild()
		all := make([]sgraph.NodeID, n)
		for i := range all {
			all[i] = sgraph.NodeID(i)
		}
		if got, want := IsBalanced(g), bruteBalanced(g, all); got != want {
			t.Fatalf("trial %d: IsBalanced = %v, brute = %v", trial, got, want)
		}
	}
}
