package compat

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/datasets"
	"repro/internal/sgraph"
)

// newMatrix builds the matrix configuration of the packed engine —
// one shard holding every row, all resident, the engine -engine matrix
// selects.
func newMatrix(k Kind, g *sgraph.Graph, opts Options) (*ShardedMatrix, error) {
	return NewSharded(k, g, ShardedOptions{Options: opts, ShardRows: g.NumNodes()})
}

// mustMatrix is newMatrix that fails loudly, for known-good inputs.
func mustMatrix(k Kind, g *sgraph.Graph, opts Options) *ShardedMatrix {
	m, err := newMatrix(k, g, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// rowCount is a popcount over a packed row.
func rowCount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// TestMatrixAgreesWithLazy: on random signed graphs, the single-shard
// packed matrix must answer every Compatible and Distance query exactly as the lazy
// relation of the same kind — including SBPH's canonicalised symmetry.
// The blockGraphs inputs run the multi-source build over several
// 64-row blocks, disconnected parts and BFS levels past 64.
func TestMatrixAgreesWithLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	// Cap the exact SBP enumeration (identically on both engines, so
	// they must still agree) to keep the test fast.
	opts := Options{Exact: balance.ExactOptions{MaxLen: 7}}
	var graphs []blockGraph
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(14)
		graphs = append(graphs, blockGraph{g: randomSignedGraph(rng, n, n+rng.Intn(4*n), 0.3)})
	}
	small := len(graphs)
	graphs = append(graphs, blockGraphs(rng)...)
	for trial, bg := range graphs {
		g := bg.g
		n := g.NumNodes()
		opts := opts
		if trial >= small {
			opts = blockOpts
		}
		for _, k := range Kinds() {
			if !bg.runs(k) {
				continue
			}
			lazy := mustNew(k, g, opts)
			m, err := newMatrix(k, g, opts)
			if err != nil {
				t.Fatalf("trial %d %v: newMatrix: %v", trial, k, err)
			}
			for u := sgraph.NodeID(0); int(u) < n; u++ {
				for v := sgraph.NodeID(0); int(v) < n; v++ {
					wantOK, err := lazy.Compatible(u, v)
					if err != nil {
						t.Fatalf("trial %d %v: lazy Compatible: %v", trial, k, err)
					}
					gotOK, _ := m.Compatible(u, v)
					if gotOK != wantOK {
						t.Fatalf("trial %d %v: Compatible(%d,%d) matrix=%v lazy=%v",
							trial, k, u, v, gotOK, wantOK)
					}
					wantD, wantDef, err := lazy.Distance(u, v)
					if err != nil {
						t.Fatalf("trial %d %v: lazy Distance: %v", trial, k, err)
					}
					gotD, gotDef, _ := m.Distance(u, v)
					if gotDef != wantDef || (gotDef && gotD != wantD) {
						t.Fatalf("trial %d %v: Distance(%d,%d) matrix=(%d,%v) lazy=(%d,%v)",
							trial, k, u, v, gotD, gotDef, wantD, wantDef)
					}
				}
			}
		}
	}
}

// TestPackedSweepMatchesLazyEpinions: on the bench-scale Epinions
// stand-in (≈1,150 users, 18 sweep blocks), the multi-source-built
// rows and distances of the packed engine — the single-shard matrix,
// and a sharded matrix whose 100-row shards cut the 64-row blocks — must
// match the lazy engine's per-source rows bit for bit, for every kind
// the sweep builds (SPM through the counting sweep and its recount).
func TestPackedSweepMatchesLazyEpinions(t *testing.T) {
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	n := g.NumNodes()
	for _, k := range []Kind{SPA, SPM, SPO, DPE, NNE} {
		lazy := mustNew(k, g, Options{})
		full := mustMatrix(k, g, Options{})
		sharded := mustSharded(t, k, g, ShardedOptions{ShardRows: 100})
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			// The lazy engine's per-source row computation, uncached.
			want := lazyRowOf(t, lazy, u)
			for name, p := range map[string]PackedRelation{"matrix": full, "sharded": sharded} {
				got := p.RowWords(u)
				for w := range want.words {
					if got[w] != want.words[w] {
						t.Fatalf("%v %s: row %d word %d = %#x, lazy %#x", k, name, u, w, got[w], want.words[w])
					}
				}
				row := p.DistanceRow(u)
				for v := sgraph.NodeID(0); int(v) < n; v++ {
					gd, gok := row.At(v)
					wd := want.dist[v]
					if gok != (wd != noDist32) || (gok && gd != wd) {
						t.Fatalf("%v %s: distance(%d,%d) = (%d,%v), lazy %d", k, name, u, v, gd, gok, wd)
					}
				}
			}
		}
		if err := sharded.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// lazyRowOf computes u's lazy row outside the relation's cache.
func lazyRowOf(t *testing.T, rel Relation, u sgraph.NodeID) *lazyRow {
	t.Helper()
	s := newRowScratch(rel.Graph().NumNodes())
	if err := rel.(*lazyRelation).computeRow(u, s); err != nil {
		t.Fatal(err)
	}
	return &s.row
}

// TestEdgeKindsMatchEdgeSigns: the DPE and NNE relations of both
// engines equal their definitions read pair by pair from EdgeSign. Both
// engines fill these rows with one shared neighbour scan, so this is
// the check of that scan that does not go through it.
func TestEdgeKindsMatchEdgeSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	var graphs []*sgraph.Graph
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(14)
		graphs = append(graphs, randomSignedGraph(rng, n, n+rng.Intn(4*n), 0.3))
	}
	for _, bg := range blockGraphs(rng) {
		graphs = append(graphs, bg.g)
	}
	for trial, g := range graphs {
		n := g.NumNodes()
		for _, k := range []Kind{DPE, NNE} {
			engines := map[string]Relation{"lazy": mustNew(k, g, Options{}), "matrix": mustMatrix(k, g, Options{})}
			for u := sgraph.NodeID(0); int(u) < n; u++ {
				for v := sgraph.NodeID(0); int(v) < n; v++ {
					sign, edge := g.EdgeSign(u, v)
					want := u == v || (k == DPE && edge && sign == sgraph.Positive) ||
						(k == NNE && !(edge && sign == sgraph.Negative))
					for label, rel := range engines {
						got, err := rel.Compatible(u, v)
						if err != nil || got != want {
							t.Fatalf("trial %d %v %s: Compatible(%d,%d) = (%v,%v), want %v", trial, k, label, u, v, got, err, want)
						}
					}
				}
			}
		}
	}
}

// TestMatrixRowInvariants: every row has its diagonal bit set, zero
// tail bits past NumNodes (so popcounts over rows are exact), and a
// popcount equal to the number of compatible partners.
func TestMatrixRowInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	g := randomSignedGraph(rng, 70, 260, 0.3) // 70 nodes: 6 tail bits in the second word
	for _, k := range Kinds() {
		// Cap the exact SBP enumeration: the invariants are internal to
		// the matrix, so a truncated relation is as good as the full one.
		m := mustMatrix(k, g, Options{Exact: balance.ExactOptions{MaxLen: 5}})
		if got := len(m.RowWords(0)); got != (g.NumNodes()+63)/64 {
			t.Fatalf("%v: row words = %d", k, got)
		}
		for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
			row := m.RowWords(u)
			if row[int(u)>>6]&(1<<uint(int(u)&63)) == 0 {
				t.Fatalf("%v: diagonal bit %d unset", k, u)
			}
			want := 0
			for v := sgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if ok, _ := m.Compatible(u, v); ok {
					want++
				}
			}
			if got := rowCount(row); got != want {
				t.Fatalf("%v: row %d popcount %d, want %d (tail bits leaked?)", k, u, got, want)
			}
		}
	}
}

// TestMatrixDistanceOverflowFallback: a path graph longer than the
// uint8 packing limit must transparently promote the distance matrix
// to int32 and stay exact.
func TestMatrixDistanceOverflowFallback(t *testing.T) {
	const n = 300 // diameter 299 > 254
	b := sgraph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	g := b.MustBuild()
	for _, k := range []Kind{SPA, SPM, NNE} {
		m := mustMatrix(k, g, Options{})
		if m.DistanceRow(0).d32 == nil {
			t.Fatalf("%v: expected int32 distance fallback", k)
		}
		d, ok, _ := m.Distance(0, n-1)
		if !ok || d != n-1 {
			t.Fatalf("%v: Distance(0,%d) = (%d,%v), want (%d,true)", k, n-1, d, ok, n-1)
		}
		lazy := mustNew(k, g, Options{})
		for _, v := range []sgraph.NodeID{1, 100, 254, 255, 299} {
			wantD, wantOK, err := lazy.Distance(0, v)
			if err != nil {
				t.Fatal(err)
			}
			gotD, gotOK, _ := m.Distance(0, v)
			if gotOK != wantOK || gotD != wantD {
				t.Fatalf("%v: Distance(0,%d) matrix=(%d,%v) lazy=(%d,%v)", k, v, gotD, gotOK, wantD, wantOK)
			}
		}
	}
}

// TestMatrixBuildPropagatesErrors: an exhausted exact-SBP budget must
// abort the build with the balance error, exactly as Precompute on the
// lazy relation does.
func TestMatrixBuildPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	g := randomSignedGraph(rng, 24, 120, 0.3)
	_, err := newMatrix(SBP, g, Options{Exact: balance.ExactOptions{MaxExpanded: 1}})
	if !errors.Is(err, balance.ErrBudgetExceeded) {
		t.Fatalf("newMatrix(SBP, budget=1) err = %v, want ErrBudgetExceeded", err)
	}
}

// TestMatrixPrecomputeNoOp: Precompute on an already-materialised
// matrix succeeds immediately.
func TestMatrixPrecomputeNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	g := randomSignedGraph(rng, 12, 40, 0.3)
	m := mustMatrix(SPO, g, Options{})
	if err := Precompute(m, 4); err != nil {
		t.Fatalf("Precompute on matrix: %v", err)
	}
}

// TestMatrixStatsMatchLazy: ComputeStats streamed over matrix rows
// must agree with the lazy engine for every kind — including SBPH,
// whose directed lazy rows are measured over their canonical upper
// triangle since the stats unification (see the Stats doc), so a full
// scan reproduces the symmetrised matrix numbers exactly.
func TestMatrixStatsMatchLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	g := randomSignedGraph(rng, 30, 140, 0.3)
	opts := Options{Exact: balance.ExactOptions{MaxLen: 6}} // cap SBP identically on both engines
	for _, k := range []Kind{DPE, SPA, SPM, SPO, SBPH, SBP, NNE} {
		lazyStats, err := ComputeStats(mustNew(k, g, opts), StatsOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%v: lazy stats: %v", k, err)
		}
		matStats, err := ComputeStats(mustMatrix(k, g, opts), StatsOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%v: matrix stats: %v", k, err)
		}
		if lazyStats.Pairs != matStats.Pairs ||
			lazyStats.CompatiblePairs != matStats.CompatiblePairs ||
			lazyStats.DistSum != matStats.DistSum ||
			lazyStats.DistCount != matStats.DistCount {
			t.Fatalf("%v: stats diverge: lazy %+v matrix %+v", k, lazyStats, matStats)
		}
	}
}

// TestMatrixEmptyGraph: degenerate sizes must not panic.
func TestMatrixEmptyGraph(t *testing.T) {
	g := sgraph.NewBuilder(0).MustBuild()
	if _, err := newMatrix(SPM, g, Options{}); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	g1 := sgraph.NewBuilder(1).MustBuild()
	m := mustMatrix(SPM, g1, Options{})
	if ok, _ := m.Compatible(0, 0); !ok {
		t.Fatal("single node must be self-compatible")
	}
	if d, ok, _ := m.Distance(0, 0); !ok || d != 0 {
		t.Fatalf("self distance = (%d,%v), want (0,true)", d, ok)
	}
}
