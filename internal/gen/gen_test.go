package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

func TestErdosRenyiCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo, err := ErdosRenyi(rng, 50, 120)
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	if topo.N != 50 || len(topo.Edges) != 120 {
		t.Fatalf("got n=%d m=%d", topo.N, len(topo.Edges))
	}
	seen := map[[2]sgraph.NodeID]bool{}
	for _, e := range topo.Edges {
		if e[0] >= e[1] {
			t.Fatalf("non-canonical edge %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestErdosRenyiTooManyEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ErdosRenyi(rng, 4, 7); err == nil {
		t.Fatal("accepted m > n(n-1)/2")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	t1, err := ErdosRenyi(rand.New(rand.NewSource(9)), 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ErdosRenyi(rand.New(rand.NewSource(9)), 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Edges) != len(t2.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range t1.Edges {
		if t1.Edges[i] != t2.Edges[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestChungLuHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topo, err := ChungLu(rng, 400, 2400, 2.5)
	if err != nil {
		t.Fatalf("ChungLu: %v", err)
	}
	if len(topo.Edges) != 2400 {
		t.Fatalf("m = %d, want 2400", len(topo.Edges))
	}
	deg := make([]int, 400)
	for _, e := range topo.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	// Heavy tail: the top 5% of nodes should hold a disproportionate
	// share of the degree mass, far beyond the uniform share.
	top := 0
	for _, d := range deg[:20] {
		top += d
	}
	if frac := float64(top) / float64(2*2400); frac < 0.15 {
		t.Fatalf("top-5%% degree share = %.3f, want ≥ 0.15 (heavy tail)", frac)
	}
	// And low-weight nodes must still exist (not a star).
	if deg[len(deg)-1] > deg[0] {
		t.Fatal("degree sequence not sorted?")
	}
}

func TestChungLuParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := ChungLu(rng, 10, 5, 1.0); err == nil {
		t.Fatal("gamma 1.0 accepted")
	}
	if _, err := ChungLu(rng, 4, 100, 2.5); err == nil {
		t.Fatal("m too large accepted")
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	topo, err := WattsStrogatz(rng, 100, 4, 0.1)
	if err != nil {
		t.Fatalf("WattsStrogatz: %v", err)
	}
	if topo.N != 100 {
		t.Fatalf("n = %d", topo.N)
	}
	// Expected ≈ n·k/2 edges (rewiring may drop a few on collisions).
	if len(topo.Edges) < 180 || len(topo.Edges) > 200 {
		t.Fatalf("m = %d, want ≈200", len(topo.Edges))
	}
	if _, err := WattsStrogatz(rng, 10, 3, 0.1); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := WattsStrogatz(rng, 4, 4, 0.1); err == nil {
		t.Fatal("k >= n accepted")
	}
}

func TestConnectMakesConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		topo, err := ErdosRenyi(rng, 60, 40) // sparse: almost surely disconnected
		if err != nil {
			t.Fatal(err)
		}
		bridges := topo.Connect(rng)
		edges := UniformSigns(rng, topo, 0.2)
		g, err := sgraph.FromEdges(topo.N, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("trial %d: graph disconnected after Connect (%d bridges)", trial, len(bridges))
		}
	}
}

func TestConnectNoOpOnConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	topo, err := WattsStrogatz(rng, 50, 4, 0) // ring lattice: connected
	if err != nil {
		t.Fatal(err)
	}
	before := len(topo.Edges)
	bridges := topo.Connect(rng)
	if len(bridges) != 0 || len(topo.Edges) != before {
		t.Fatalf("Connect modified a connected topology (%d bridges)", len(bridges))
	}
}

func TestUniformSignsFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo, err := ErdosRenyi(rng, 200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	edges := UniformSigns(rng, topo, 0.3)
	neg := 0
	for _, e := range edges {
		if e.Sign == sgraph.Negative {
			neg++
		}
	}
	frac := float64(neg) / float64(len(edges))
	if math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("negative fraction = %.3f, want ≈0.30", frac)
	}
}

func TestFactionSignsExactFractionAndMostlyBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	topo, err := ChungLu(rng, 300, 1800, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	camps := RandomCamps(rng, 300, 0.5)
	edges, err := FactionSigns(rng, topo, camps, 0.2, 0.02)
	if err != nil {
		t.Fatalf("FactionSigns: %v", err)
	}
	neg := 0
	for _, e := range edges {
		if e.Sign == sgraph.Negative {
			neg++
		}
	}
	want := int(float64(len(edges))*0.2 + 0.5)
	if neg != want {
		t.Fatalf("negative edges = %d, want exactly %d", neg, want)
	}
	// Mostly balanced: frustration well below the negative edge count.
	g, err := sgraph.FromEdges(topo.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	if f := balance.Frustration(g); f > len(edges)/5 {
		t.Fatalf("frustration = %d on %d edges; sign model not mostly balanced", f, len(edges))
	}
}

func TestFactionSignsZeroNoiseZeroTargetMatchesCamps(t *testing.T) {
	// With noise 0 and negFrac equal to the natural inter-faction
	// fraction, signs follow camps exactly and the graph is balanced.
	rng := rand.New(rand.NewSource(10))
	topo, err := ErdosRenyi(rng, 80, 300)
	if err != nil {
		t.Fatal(err)
	}
	camps := RandomCamps(rng, 80, 0.5)
	inter := 0
	for _, e := range topo.Edges {
		if camps[e[0]] != camps[e[1]] {
			inter++
		}
	}
	edges, err := FactionSigns(rng, topo, camps, float64(inter)/float64(len(topo.Edges)), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.FromEdges(topo.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !balance.IsBalanced(g) {
		t.Fatal("pure faction signing must be balanced")
	}
}

func TestCampsForNegFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, f := range []float64{0.167, 0.215, 0.292} {
		topo, err := ChungLu(rng, 600, 4000, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		camps, err := CampsForNegFraction(rng, 600, f)
		if err != nil {
			t.Fatalf("CampsForNegFraction(%g): %v", f, err)
		}
		// The natural inter-faction fraction should already be close
		// to the target, so calibration flips few edges...
		inter := 0
		for _, e := range topo.Edges {
			if camps[e[0]] != camps[e[1]] {
				inter++
			}
		}
		interFrac := float64(inter) / float64(len(topo.Edges))
		if math.Abs(interFrac-f) > 0.06 {
			t.Fatalf("f=%g: natural inter-faction fraction %.3f too far from target", f, interFrac)
		}
		// ...and the signed graph stays mostly balanced: frustration
		// stays near the noise level, far below the negative count.
		edges, err := FactionSigns(rng, topo, camps, f, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sgraph.FromEdges(topo.N, edges)
		if err != nil {
			t.Fatal(err)
		}
		if fr := balance.Frustration(g); fr > len(edges)/8 {
			t.Fatalf("f=%g: frustration %d of %d edges — not mostly balanced", f, fr, len(edges))
		}
	}
	if _, err := CampsForNegFraction(rng, 10, 0.6); err == nil {
		t.Fatal("negFrac > 0.5 accepted")
	}
	if _, err := CampsForNegFraction(rng, 10, -0.1); err == nil {
		t.Fatal("negative negFrac accepted")
	}
}

func TestFactionSignsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topo, _ := ErdosRenyi(rng, 10, 20)
	camps := RandomCamps(rng, 10, 0.5)
	if _, err := FactionSigns(rng, topo, camps[:5], 0.2, 0); err == nil {
		t.Fatal("short camps accepted")
	}
	if _, err := FactionSigns(rng, topo, camps, 1.5, 0); err == nil {
		t.Fatal("negFrac > 1 accepted")
	}
	if _, err := FactionSigns(rng, topo, camps, 0.2, -1); err == nil {
		t.Fatal("negative noise accepted")
	}
}
