package signedbfs

import (
	"math/rand"
	"testing"

	"repro/internal/sgraph"
)

func pathGraph(n int) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	return b.MustBuild()
}

func randomGraph(rng *rand.Rand, n, m int, negFrac float64) *sgraph.Graph {
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

func TestDistancesPathGraph(t *testing.T) {
	g := pathGraph(6)
	dist := Distances(g, 0)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	dist = Distances(g, 3)
	want := []int32{3, 2, 1, 0, 1, 2}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestDistancesIgnoreSign(t *testing.T) {
	// Signs must not affect plain distances.
	g := sgraph.MustFromEdges(3, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Negative},
		{U: 1, V: 2, Sign: sgraph.Negative},
	})
	dist := Distances(g, 0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %d, want 2", dist[2])
	}
}

// floydWarshall computes all-pairs distances for cross-checking.
func floydWarshall(g *sgraph.Graph) [][]int32 {
	n := g.NumNodes()
	const inf = int32(1 << 29)
	d := make([][]int32, n)
	for i := range d {
		d[i] = make([]int32, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, e := range g.Edges() {
		d[e.U][e.V] = 1
		d[e.V][e.U] = 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestDistancesMatchFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 4+rng.Intn(20), 30, 0.3)
		fw := floydWarshall(g)
		for s := 0; s < g.NumNodes(); s++ {
			dist := Distances(g, sgraph.NodeID(s))
			for v := 0; v < g.NumNodes(); v++ {
				want := fw[s][v]
				if want >= 1<<29 {
					want = Unreachable
				}
				if dist[v] != want {
					t.Fatalf("trial %d: dist(%d,%d) = %d, want %d", trial, s, v, dist[v], want)
				}
			}
		}
	}
}

// Eccentricity returns the largest finite distance from src, i.e. the
// eccentricity of src within its connected component.
func Eccentricity(g *sgraph.Graph, src sgraph.NodeID) int32 {
	ecc := int32(0)
	for _, d := range Distances(g, src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

func TestEccentricityAndDiameterPath(t *testing.T) {
	g := pathGraph(10)
	if e := Eccentricity(g, 0); e != 9 {
		t.Fatalf("ecc(0) = %d, want 9", e)
	}
	if e := Eccentricity(g, 5); e != 5 {
		t.Fatalf("ecc(5) = %d, want 5", e)
	}
	if d := Diameter(g); d != 9 {
		t.Fatalf("diameter = %d, want 9", d)
	}
}

func TestDiameterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 5+rng.Intn(40), 80, 0.2)
		fw := floydWarshall(g)
		want := int32(0)
		for i := range fw {
			for j := range fw[i] {
				if fw[i][j] < 1<<29 && fw[i][j] > want {
					want = fw[i][j]
				}
			}
		}
		if got := Diameter(g); got != want {
			t.Fatalf("trial %d: Diameter = %d, want %d", trial, got, want)
		}
	}
}

func TestDiameterEmptyAndSingle(t *testing.T) {
	if d := Diameter(sgraph.NewBuilder(0).MustBuild()); d != 0 {
		t.Fatalf("diameter of empty graph = %d", d)
	}
	if d := Diameter(sgraph.NewBuilder(1).MustBuild()); d != 0 {
		t.Fatalf("diameter of single node = %d", d)
	}
}

func TestAverageDistancePath(t *testing.T) {
	// Path 0-1-2: ordered pairs distances 1,2,1,1,2,1 → mean 8/6.
	g := pathGraph(3)
	got := AverageDistance(g)
	want := 8.0 / 6.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("AverageDistance = %g, want %g", got, want)
	}
}

func TestAverageDistanceNoPairs(t *testing.T) {
	if got := AverageDistance(sgraph.NewBuilder(3).MustBuild()); got != 0 {
		t.Fatalf("AverageDistance = %g, want 0", got)
	}
}

// TestDistanceSweepMatchesPerSource checks Diameter and AverageDistance,
// which sweep MaxSources sources per traversal, against one
// DistancesInto per source, at sizes below, at and past one and two
// blocks. Each graph interleaves its node ids over three components —
// a random one, a chain (whose length sets the diameter) and a sparser
// random one — and every ninth node is isolated, so blocks hold
// sources of several components and sources that reach nothing.
func TestDistanceSweepMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{63, 64, 65, 129, 200} {
		comps := make([][]sgraph.NodeID, 3)
		for u := 0; u < n; u++ {
			if u%9 != 8 {
				c := rng.Intn(3)
				comps[c] = append(comps[c], sgraph.NodeID(u))
			}
		}
		b := sgraph.NewBuilder(n)
		addEdge := func(u, v sgraph.NodeID) {
			if u == v || b.HasEdge(u, v) {
				return
			}
			s := sgraph.Positive
			if rng.Intn(4) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(u, v, s)
		}
		for c, nodes := range comps {
			for i := 1; i < len(nodes); i++ {
				if c == 1 { // the chain
					addEdge(nodes[i-1], nodes[i])
					continue
				}
				addEdge(nodes[i], nodes[rng.Intn(i)]) // a random tree
				if c == 0 {
					addEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
				}
			}
		}
		g := b.MustBuild()

		var diam int32
		var sum, pairs int64
		scratch := NewScratch(n)
		var dist []int32
		for s := 0; s < n; s++ {
			dist = DistancesInto(g, sgraph.NodeID(s), dist, scratch)
			for _, d := range dist {
				if d > 0 {
					diam = max(diam, d)
					sum += int64(d)
					pairs++
				}
			}
		}
		if got := Diameter(g); got != diam {
			t.Errorf("n=%d: Diameter = %d, want %d", n, got, diam)
		}
		if got, want := AverageDistance(g), float64(sum)/float64(pairs); got != want {
			t.Errorf("n=%d: AverageDistance = %v, want %v (%d pairs)", n, got, want, pairs)
		}
	}
}
