package compat

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// mustNew is New for tests with known-good arguments: it panics on
// error, so it can build relations inside composite literals.
func mustNew(k Kind, g *sgraph.Graph, opts Options) Relation {
	r, err := New(k, g, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// figure1a is the paper's Figure 1(a): u=0 and v=5 are SBP-compatible
// but not SP-compatible.
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

func allRelations(t testing.TB, g *sgraph.Graph) map[Kind]Relation {
	t.Helper()
	rels := make(map[Kind]Relation)
	for _, k := range Kinds() {
		rels[k] = mustNew(k, g, Options{})
	}
	return rels
}

func mustCompatible(t *testing.T, r Relation, u, v sgraph.NodeID) bool {
	t.Helper()
	ok, err := r.Compatible(u, v)
	if err != nil {
		t.Fatalf("%v.Compatible(%d,%d): %v", r.Kind(), u, v, err)
	}
	return ok
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip failed for %v: %v", k, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind String = %q", got)
	}
	if _, err := ParseKind("sbph"); err != nil {
		t.Fatal("ParseKind must be case-insensitive")
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New(Kind(99), figure1a(), Options{}); err == nil {
		t.Fatal("New accepted an unknown kind")
	}
}

func TestFigure1aRelationVerdicts(t *testing.T) {
	g := figure1a()
	rels := allRelations(t, g)
	u, v := sgraph.NodeID(0), sgraph.NodeID(5)
	want := map[Kind]bool{
		DPE:  false,
		SPA:  false,
		SPM:  false,
		SPO:  false, // the only shortest path is negative
		SBPH: true,  // the balanced positive path has the prefix property here
		SBP:  true,
		NNE:  true, // no direct negative edge between u and v
	}
	for k, expect := range want {
		if got := mustCompatible(t, rels[k], u, v); got != expect {
			t.Errorf("%v.Compatible(u,v) = %v, want %v", k, got, expect)
		}
	}
	// Distances: SP-family distance is graph distance 2; SBP distance
	// is the balanced positive path length 4.
	if d, ok, err := rels[NNE].Distance(u, v); err != nil || !ok || d != 2 {
		t.Errorf("NNE distance = %d,%v,%v, want 2", d, ok, err)
	}
	if d, ok, err := rels[SPO].Distance(u, v); err != nil || !ok || d != 2 {
		t.Errorf("SPO distance = %d,%v,%v, want 2", d, ok, err)
	}
	if d, ok, err := rels[SBP].Distance(u, v); err != nil || !ok || d != 4 {
		t.Errorf("SBP distance = %d,%v,%v, want 4", d, ok, err)
	}
	if d, ok, err := rels[SBPH].Distance(u, v); err != nil || !ok || d != 4 {
		t.Errorf("SBPH distance = %d,%v,%v, want 4", d, ok, err)
	}
	// DPE has no distance semantics issue here: u,v unreachable via
	// positive edge but plain distance is still defined.
	if d, ok, err := rels[DPE].Distance(u, v); err != nil || !ok || d != 2 {
		t.Errorf("DPE distance = %d,%v,%v, want 2", d, ok, err)
	}
}

// blockOpts caps the SBPH beam and the exact SBP enumeration on
// blockGraphs inputs (identically on every engine, so they must still
// agree): both kinds keep one-row blocks, and their full searches on
// these graphs would dominate the suites' run time.
var blockOpts = Options{BeamWidth: 2, Exact: balance.ExactOptions{MaxLen: 4}}

// blockGraph is one agreement-suite input taller than a single
// 64-source sweep block. sweepOnly inputs target the kinds the
// multi-source sweep builds; suites skip them for SBP and SBPH, whose
// one-row searches they exercise no differently and on which those
// searches would dominate the suites' run time.
type blockGraph struct {
	name      string
	g         *sgraph.Graph
	sweepOnly bool
	// muts are mutations the mutation oracle applies before its random
	// ones.
	muts []sgraph.Mutation
}

// runs reports whether suites check kind k on the input.
func (bg blockGraph) runs(k Kind) bool { return !bg.sweepOnly || (k != SBP && k != SBPH) }

// blockGraphs returns the inputs the engine-agreement suites add on
// top of their small random graphs, so the packed builds run several
// 64-row sweep blocks (and partial last blocks): random graphs of 65,
// 130 and 200 nodes; a graph of several components plus isolated
// nodes; a long path with mixed signs, whose BFS levels run far past
// 64; a mixed-sign chain of 66 diamonds, whose shortest-path counts
// pass 2^64 and saturate without ever tying; a mixed-sign path of 300 nodes, whose
// distances beyond uint8 packing force the wide retry; and chains of
// 30, 31 and 32 diamonds whose largest shortest-path count is 2^30,
// 2^31 and 2^32: just below the counting sweep's 32-bit lanes, at
// their limit, and past it, where a lane's halves carry into each
// other. Suites run them under blockOpts. The last five are sweepOnly;
// they use no rng draws (the diamond and path draw from their own
// fixed seed), so they leave rng where the earlier inputs did.
func blockGraphs(rng *rand.Rand) []blockGraph {
	out := []blockGraph{
		{"n65", randomSignedGraph(rng, 65, 130, 0.3), false, nil},
		{"n130", randomSignedGraph(rng, 130, 260, 0.3), false, nil},
		{"n200", randomSignedGraph(rng, 200, 400, 0.3), false, nil},
	}
	// Three random components of 40 nodes (ids interleaved, so every
	// block mixes them) and 30 isolated nodes.
	const parts, size, isolated = 3, 40, 30
	split := sgraph.NewBuilder(parts*size + isolated)
	for i := 0; i < parts*size*2; i++ {
		c := rng.Intn(parts)
		u := sgraph.NodeID(c + parts*rng.Intn(size))
		v := sgraph.NodeID(c + parts*rng.Intn(size))
		if u == v || split.HasEdge(u, v) {
			continue
		}
		s := sgraph.Positive
		if rng.Intn(3) == 0 {
			s = sgraph.Negative
		}
		split.AddEdge(u, v, s)
	}
	out = append(out, blockGraph{"split", split.MustBuild(), false, nil})
	own := rand.New(rand.NewSource(1501))
	return append(out,
		blockGraph{"path", mixedPath(rng, 150), false, nil},
		blockGraph{"diamonds", diamondChain(own, 66), true, nil},
		blockGraph{"widepath", mixedPath(own, 300), true, nil},
		boundaryGraph(29), boundaryGraph(30), boundaryGraph(31))
}

// boundaryGraph is the blockGraphs input of boundaryChain(k), named
// for its k+1 diamonds. Its mutation-oracle run first flips edge 0–1,
// the fan's first branch, turning the counts between the chain's ends
// from (2^k, 2^(k+1)) to (2^(k+1), 2^k) and so the majority verdict.
func boundaryGraph(k int) blockGraph {
	flip := sgraph.Mutation{Op: sgraph.MutFlip, U: 0, V: 1}
	return blockGraph{fmt.Sprintf("diamonds%d", k+1), boundaryChain(k), true, []sgraph.Mutation{flip}}
}

// boundaryChain builds a chain of k+1 diamonds from node 0: first a
// fan of three two-edge branches whose first edges are negative,
// negative and positive (node 1's, 2's and 3's), mapping a source's
// counts (1, 0) to (1, 2) at node 4, then k all-positive two-branch
// diamonds, each doubling both counts. From node 0 the last node is
// reached along 2^k positive and 2^(k+1) negative shortest paths, the
// negative count crossing each power of two first.
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

// diamondChain builds a chain of k diamonds, each a fan of three
// parallel two-edge branches from one join node to the next, a
// branch's first edge negative with probability 0.35. A fan with a
// positive and b negative branches maps a source's counts (P, N) at
// its entry to (aP+bN, aN+bP) at its exit, so P−N is multiplied by
// a−b, which is odd and never zero: counts never tie, and they pass
// 2^64 (and saturate) after 41 diamonds, where only saturating
// arithmetic keeps the majority verdicts of the packed and lazy
// engines equal.
func diamondChain(rng *rand.Rand, k int) *sgraph.Graph {
	b := sgraph.NewBuilder(4*k + 1)
	for i := 0; i < k; i++ {
		in, out := sgraph.NodeID(4*i), sgraph.NodeID(4*i+4)
		for mid := in + 1; mid < out; mid++ {
			s := sgraph.Positive
			if rng.Float64() < 0.35 {
				s = sgraph.Negative
			}
			b.AddEdge(in, mid, s)
			b.AddEdge(mid, out, sgraph.Positive)
		}
	}
	return b.MustBuild()
}

// mixedPath builds a path of n nodes, each edge negative with
// probability 0.25.
func mixedPath(rng *rand.Rand, n int) *sgraph.Graph {
	b := sgraph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		s := sgraph.Positive
		if rng.Intn(4) == 0 {
			s = sgraph.Negative
		}
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), s)
	}
	return b.MustBuild()
}

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

// TestEdgeAxioms: every relation must satisfy positive-edge
// compatibility and negative-edge incompatibility (Section 2 of the
// paper).
func TestEdgeAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		g := randomSignedGraph(rng, 8+rng.Intn(8), 30, 0.35)
		rels := allRelations(t, g)
		for _, e := range g.Edges() {
			for k, r := range rels {
				got := mustCompatible(t, r, e.U, e.V)
				if e.Sign == sgraph.Positive && !got {
					t.Fatalf("trial %d: %v violates positive edge compatibility on %+v", trial, k, e)
				}
				if e.Sign == sgraph.Negative && got {
					t.Fatalf("trial %d: %v violates negative edge incompatibility on %+v", trial, k, e)
				}
			}
		}
	}
}

// TestReflexiveSymmetric: Comp must be reflexive and symmetric for
// every relation.
func TestReflexiveSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		n := 7 + rng.Intn(6)
		g := randomSignedGraph(rng, n, 25, 0.3)
		rels := allRelations(t, g)
		for k, r := range rels {
			for u := sgraph.NodeID(0); int(u) < n; u++ {
				if !mustCompatible(t, r, u, u) {
					t.Fatalf("%v not reflexive at %d", k, u)
				}
				for v := u + 1; int(v) < n; v++ {
					if mustCompatible(t, r, u, v) != mustCompatible(t, r, v, u) {
						t.Fatalf("trial %d: %v not symmetric on (%d,%d)", trial, k, u, v)
					}
				}
			}
		}
	}
}

// TestContainmentChain verifies Proposition 3.5 on random graphs:
// DPE ⊆ SPA ⊆ SPM ⊆ SPO ⊆ SBP ⊆ NNE, plus SBPH ⊆ SBP.
func TestContainmentChain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	chain := []Kind{DPE, SPA, SPM, SPO, SBP, NNE}
	for trial := 0; trial < 12; trial++ {
		n := 6 + rng.Intn(8)
		g := randomSignedGraph(rng, n, 3*n, 0.3)
		rels := allRelations(t, g)
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				prev := false
				for i, k := range chain {
					cur := mustCompatible(t, rels[k], u, v)
					if i > 0 && prev && !cur {
						t.Fatalf("trial %d pair (%d,%d): %v compatible but %v not — containment violated",
							trial, u, v, chain[i-1], k)
					}
					prev = cur
				}
				if mustCompatible(t, rels[SBPH], u, v) && !mustCompatible(t, rels[SBP], u, v) {
					t.Fatalf("trial %d pair (%d,%d): SBPH ⊄ SBP", trial, u, v)
				}
			}
		}
	}
}

// TestSBPDistanceNeverBelowGraphDistance: a balanced positive path is
// a path, so its length is at least the graph distance.
func TestSBPDistanceNeverBelowGraphDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomSignedGraph(rng, 12, 36, 0.3)
	sbp := mustNew(SBP, g, Options{})
	nne := mustNew(NNE, g, Options{})
	for u := sgraph.NodeID(0); int(u) < 12; u++ {
		for v := sgraph.NodeID(0); int(v) < 12; v++ {
			db, okb, err := sbp.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			dn, okn, err := nne.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if okb && okn && db < dn {
				t.Fatalf("(%d,%d): SBP distance %d below graph distance %d", u, v, db, dn)
			}
		}
	}
}

func TestCacheCapOneStillCorrect(t *testing.T) {
	g := figure1a()
	r := mustNew(SPO, g, Options{CacheCap: 1})
	// Alternate sources to force evictions, answers must not change.
	for i := 0; i < 10; i++ {
		if mustCompatible(t, r, 0, 5) {
			t.Fatal("SPO(0,5) must be false")
		}
		if !mustCompatible(t, r, 2, 3) {
			t.Fatal("SPO(2,3) must be true")
		}
		if !mustCompatible(t, r, 4, 5) {
			t.Fatal("SPO(4,5) must be true")
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := randomSignedGraph(rand.New(rand.NewSource(61)), 30, 120, 0.25)
	r := mustNew(SPM, g, Options{CacheCap: 4})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				u, v := sgraph.NodeID(rng.Intn(30)), sgraph.NodeID(rng.Intn(30))
				if _, err := r.Compatible(u, v); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSBPBudgetErrorPropagates(t *testing.T) {
	// Dense graph and a one-step budget: Compatible must surface the
	// budget error rather than fabricate an answer.
	rng := rand.New(rand.NewSource(67))
	b := sgraph.NewBuilder(14)
	for u := 0; u < 14; u++ {
		for v := u + 1; v < 14; v++ {
			s := sgraph.Positive
			if rng.Intn(2) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(sgraph.NodeID(u), sgraph.NodeID(v), s)
		}
	}
	g := b.MustBuild()
	r := mustNew(SBP, g, Options{Exact: balance.ExactOptions{MaxExpanded: 1}})
	if _, err := r.Compatible(0, 13); !errors.Is(err, balance.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if _, _, err := r.Distance(0, 13); !errors.Is(err, balance.ErrBudgetExceeded) {
		t.Fatalf("Distance err = %v, want ErrBudgetExceeded", err)
	}
}

func TestPrecomputeFillsCache(t *testing.T) {
	g := randomSignedGraph(rand.New(rand.NewSource(71)), 40, 150, 0.25)
	r := mustNew(SPM, g, Options{CacheCap: 64})
	if err := Precompute(r, 4); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	// All queries must now be served (answers correct regardless; this
	// is a smoke check that nothing broke).
	for u := sgraph.NodeID(0); u < 40; u++ {
		if _, err := r.Compatible(u, (u+1)%40); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrecomputePropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	b := sgraph.NewBuilder(14)
	for u := 0; u < 14; u++ {
		for v := u + 1; v < 14; v++ {
			s := sgraph.Positive
			if rng.Intn(2) == 0 {
				s = sgraph.Negative
			}
			b.AddEdge(sgraph.NodeID(u), sgraph.NodeID(v), s)
		}
	}
	r := mustNew(SBP, b.MustBuild(), Options{Exact: balance.ExactOptions{MaxExpanded: 5}})
	if err := Precompute(r, 2); !errors.Is(err, balance.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRelationGraphAccessor(t *testing.T) {
	g := figure1a()
	for _, k := range Kinds() {
		if mustNew(k, g, Options{}).Graph() != g {
			t.Fatalf("%v.Graph() does not return the underlying graph", k)
		}
	}
}
