package signedbfs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sgraph"
)

// CountPaths runs the signed path-counting BFS (Algorithm 1) from src
// on a fresh Result and Scratch: the one-call form the tests and the
// external benchmarks use. It is exported so the external test package
// sees it.
func CountPaths(g *sgraph.Graph, src sgraph.NodeID) *Result {
	return CountPathsInto(g, src, &Result{}, NewScratch(g.NumNodes()))
}

// figure1a builds the example of Figure 1(a) of the paper (an instance
// consistent with its stated properties): u=0, x1=1, x2=2, x3=3, x4=4,
// v=5. The only shortest u–v path (u,x1,v) is negative; (u,x2,x1,v) is
// positive but not structurally balanced; (u,x2,x3,x4,v) is positive
// and structurally balanced.
func figure1a() *sgraph.Graph {
	return sgraph.MustFromEdges(6, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Negative},
		{U: 1, V: 5, Sign: sgraph.Positive},
		{U: 0, V: 2, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 3, V: 4, Sign: sgraph.Positive},
		{U: 4, V: 5, Sign: sgraph.Positive},
	})
}

func TestCountPathsTriangle(t *testing.T) {
	// 0 −(+) 1, 1 −(+) 2, 0 −(−) 2.
	g := sgraph.MustFromEdges(3, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 0, V: 2, Sign: sgraph.Negative},
	})
	r := CountPaths(g, 0)
	if r.Dist[0] != 0 || r.Pos[0] != 1 || r.Neg[0] != 0 {
		t.Fatalf("source: dist=%d pos=%d neg=%d", r.Dist[0], r.Pos[0], r.Neg[0])
	}
	if r.Dist[1] != 1 || r.Pos[1] != 1 || r.Neg[1] != 0 {
		t.Fatalf("node 1: dist=%d pos=%d neg=%d, want 1/1/0", r.Dist[1], r.Pos[1], r.Neg[1])
	}
	// Node 2 is adjacent via the negative edge: one negative shortest path.
	if r.Dist[2] != 1 || r.Pos[2] != 0 || r.Neg[2] != 1 {
		t.Fatalf("node 2: dist=%d pos=%d neg=%d, want 1/0/1", r.Dist[2], r.Pos[2], r.Neg[2])
	}
	if r.HasPositive(2) || r.Neg[2] == 0 || r.AllPositive(2) {
		t.Fatal("sign predicates wrong for node 2")
	}
	if !r.MajorityPositive(1) || r.MajorityPositive(2) {
		t.Fatal("majority predicates wrong")
	}
}

func TestCountPathsFigure1a(t *testing.T) {
	g := figure1a()
	r := CountPaths(g, 0)
	// Only shortest path u→v is (u,x1,v), negative, length 2.
	if r.Dist[5] != 2 {
		t.Fatalf("dist(u,v) = %d, want 2", r.Dist[5])
	}
	if r.Pos[5] != 0 || r.Neg[5] != 1 {
		t.Fatalf("u→v counts pos=%d neg=%d, want 0/1", r.Pos[5], r.Neg[5])
	}
	if r.HasPositive(5) {
		t.Fatal("u,v must have no positive shortest path (not SPO compatible)")
	}
}

func TestCountPathsParallelShortestPaths(t *testing.T) {
	// Diamond: 0→{1,2}→3 with one negative side.
	// Paths 0-1-3 (+ +) = + and 0-2-3 (− +) = −.
	g := sgraph.MustFromEdges(4, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 0, V: 2, Sign: sgraph.Negative},
		{U: 1, V: 3, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
	})
	r := CountPaths(g, 0)
	if r.Dist[3] != 2 || r.Pos[3] != 1 || r.Neg[3] != 1 {
		t.Fatalf("node 3: dist=%d pos=%d neg=%d, want 2/1/1", r.Dist[3], r.Pos[3], r.Neg[3])
	}
	if !r.MajorityPositive(3) {
		t.Fatal("tie should count as majority-positive (|SP+| ≥ |SP−|)")
	}
}

func TestCountPathsUnreachable(t *testing.T) {
	g := sgraph.MustFromEdges(3, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Positive}})
	r := CountPaths(g, 0)
	if r.Dist[2] != Unreachable {
		t.Fatal("node 2 should be unreachable")
	}
	if r.Pos[2] != 0 || r.Neg[2] != 0 {
		t.Fatal("unreachable node has path counts")
	}
	if r.MajorityPositive(2) {
		t.Fatal("unreachable node cannot be majority-positive")
	}
}

// bruteCounts enumerates every simple path of minimal length from src
// to every node by exhaustive DFS (exponential; for tiny graphs only)
// and counts signs.
func bruteCounts(g *sgraph.Graph, src sgraph.NodeID) (dist []int32, pos, neg []uint64) {
	n := g.NumNodes()
	dist = Distances(g, src)
	pos = make([]uint64, n)
	neg = make([]uint64, n)
	onPath := make([]bool, n)
	var dfs func(u sgraph.NodeID, depth int32, sign sgraph.Sign)
	dfs = func(u sgraph.NodeID, depth int32, sign sgraph.Sign) {
		if depth == dist[u] {
			if sign == sgraph.Positive {
				pos[u]++
			} else {
				neg[u]++
			}
		}
		onPath[u] = true
		ids := g.NeighborIDs(u)
		signs := g.NeighborSigns(u)
		for i, v := range ids {
			if !onPath[v] && depth+1 <= dist[v] {
				dfs(v, depth+1, sign*signs[i])
			}
		}
		onPath[u] = false
	}
	dfs(src, 0, sgraph.Positive)
	return dist, pos, neg
}

// TestCountPathsMatchesBruteForce cross-checks Algorithm 1 against
// exhaustive enumeration on random graphs.
func TestCountPathsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(9)
		b := sgraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
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
		src := sgraph.NodeID(rng.Intn(n))
		r := CountPaths(g, src)
		dist, pos, neg := bruteCounts(g, src)
		for v := 0; v < n; v++ {
			if r.Dist[v] != dist[v] || r.Pos[v] != pos[v] || r.Neg[v] != neg[v] {
				t.Fatalf("trial %d node %d: got (%d,%d,%d), brute (%d,%d,%d)",
					trial, v, r.Dist[v], r.Pos[v], r.Neg[v], dist[v], pos[v], neg[v])
			}
		}
	}
}

// TestCountPathsMatchesBig cross-checks saturating counters against
// exact big.Int arithmetic on random graphs (no saturation expected at
// this scale).
func TestCountPathsMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		b := sgraph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))
			if u == v || b.HasEdge(u, v) {
				continue
			}
			s := sgraph.Positive
			if rng.Intn(3) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(u, v, s)
		}
		g := b.MustBuild()
		src := sgraph.NodeID(rng.Intn(n))
		r := CountPaths(g, src)
		rb := CountPathsBig(g, src)
		if r.SaturatedAt {
			t.Fatal("unexpected saturation on a small graph")
		}
		for v := 0; v < n; v++ {
			if r.Dist[v] != rb.Dist[v] {
				t.Fatalf("dist mismatch at %d", v)
			}
			if !rb.Pos[v].IsUint64() || rb.Pos[v].Uint64() != r.Pos[v] {
				t.Fatalf("pos mismatch at %d: %d vs %s", v, r.Pos[v], rb.Pos[v])
			}
			if !rb.Neg[v].IsUint64() || rb.Neg[v].Uint64() != r.Neg[v] {
				t.Fatalf("neg mismatch at %d: %d vs %s", v, r.Neg[v], rb.Neg[v])
			}
		}
	}
}

// diamondChain builds a chain of k diamonds: each diamond doubles the
// number of shortest paths, so counts reach 2^k.
func diamondChain(k int, negEvery int) *sgraph.Graph {
	// Nodes: 0, then per diamond i: top=3i+1, bottom=3i+2, join=3i+3.
	b := sgraph.NewBuilder(3*k + 1)
	for i := 0; i < k; i++ {
		in := sgraph.NodeID(3 * i)
		top, bot, out := in+1, in+2, in+3
		s := sgraph.Positive
		if negEvery > 0 && i%negEvery == 0 {
			s = sgraph.Negative
		}
		b.AddEdge(in, top, s)
		b.AddEdge(in, bot, sgraph.Positive)
		b.AddEdge(top, out, sgraph.Positive)
		b.AddEdge(bot, out, sgraph.Positive)
	}
	return b.MustBuild()
}

func TestCountPathsExponentialNoOverflowAt62(t *testing.T) {
	g := diamondChain(62, 0)
	r := CountPaths(g, 0)
	end := sgraph.NodeID(g.NumNodes() - 1)
	if r.SaturatedAt {
		t.Fatal("2^62 paths must not saturate uint64")
	}
	if r.Pos[end] != uint64(1)<<62 {
		t.Fatalf("pos = %d, want 2^62", r.Pos[end])
	}
}

func TestCountPathsSaturates(t *testing.T) {
	g := diamondChain(70, 0)
	r := CountPaths(g, 0)
	end := sgraph.NodeID(g.NumNodes() - 1)
	if !r.SaturatedAt {
		t.Fatal("2^70 paths must saturate")
	}
	if r.Pos[end] != math.MaxUint64 {
		t.Fatalf("saturated count = %d, want MaxUint64", r.Pos[end])
	}
	// Zero/non-zero predicates stay exact under saturation.
	if !r.HasPositive(end) || r.Neg[end] != 0 {
		t.Fatal("sign predicates corrupted by saturation")
	}
}

func TestCountPathsBigExactBeyondUint64(t *testing.T) {
	g := diamondChain(70, 0)
	r := CountPathsBig(g, 0)
	end := sgraph.NodeID(g.NumNodes() - 1)
	if r.Pos[end].BitLen() != 71 { // 2^70 has 71 bits
		t.Fatalf("big pos bitlen = %d, want 71", r.Pos[end].BitLen())
	}
}
