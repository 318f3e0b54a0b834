package compat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// TestAndCountRowsMatchPerRow: the bulk AndCountRows methods must
// return exactly what a per-row RowWords + container.AndCount loop
// does, on both packed engines — including sharded configurations
// where the row batch crosses shard boundaries and evicts residents —
// for a row-length mask and for a one-word mask, whose missing words
// count as zero (a holder set over fewer users than the graph has
// nodes).
func TestAndCountRowsMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 4; trial++ {
		n := 40 + rng.Intn(60)
		g := randomSignedGraph(rng, n, 4*n, 0.3)
		engines := []struct {
			name string
			m    *ShardedMatrix
		}{
			{"matrix", mustMatrix(SPO, g, Options{})},
			{"sharded", mustSharded(t, SPO, g, ShardedOptions{ShardRows: 7, MaxResidentShards: 2})},
		}
		// A random mask with zeroed tail bits, like the holder sets the
		// degree passes pass in.
		mask := container.NewBitset(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				mask.Set(v)
			}
		}
		// A batch of rows in random order, with repeats, so the sharded
		// walk exercises shard switches and the lastShard cache alike.
		us := make([]sgraph.NodeID, 0, n)
		for i := 0; i < n; i++ {
			us = append(us, sgraph.NodeID(rng.Intn(n)))
		}
		for _, e := range engines {
			for _, mk := range [][]uint64{mask.Words(), mask.Words()[:1]} {
				label := fmt.Sprintf("trial %d %s mask words %d", trial, e.name, len(mk))
				var wantSum int64
				want := make([]int32, len(us))
				for i, u := range us {
					c := int32(container.AndCount(e.m.RowWords(u)[:len(mk)], mk))
					want[i] = c
					wantSum += int64(c)
				}
				gotSum, err := e.m.AndCountRows(us, mk)
				if err != nil {
					t.Fatalf("%s: AndCountRows: %v", label, err)
				}
				if gotSum != wantSum {
					t.Fatalf("%s: AndCountRows = %d, want %d", label, gotSum, wantSum)
				}
				got := make([]int32, len(us))
				if err := e.m.AndCountRowsEach(us, mk, got); err != nil {
					t.Fatalf("%s: AndCountRowsEach: %v", label, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: AndCountRowsEach[%d] (row %d) = %d, want %d",
							label, i, us[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDistRowsPickMinMatchesScalar: the fused PickMin (kernel path on
// all-u8 stacks, scalar path on int32 stacks) must pick the same node
// and score as a scalar enumeration of (holder AND mask) scored by
// Contribution — same smallest-id tie-break included — for both the
// Diameter (max) and SumDistance costs, under every budget from none
// at all to no limit, under every valid floor (0 up to the smallest
// defined score), and over both word lists a caller may pass: the
// holder's exact non-zero words and every word index. An empty list
// picks nothing.
func TestDistRowsPickMinMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(100)
		g := randomSignedGraph(rng, n, 3*n, 0.35)
		m := mustMatrix(SPO, g, Options{})
		// rs holds the engine's u8 rows, wide the same rows widened to
		// int32, which sends PickMin down its scalar path.
		var rs, wide DistRows
		var sources []int
		for k := 0; k < 1+rng.Intn(4); k++ {
			u := rng.Intn(n)
			sources = append(sources, u)
			row := m.DistanceRow(sgraph.NodeID(u))
			rs.Append(row)
			wide.Append(DistRow{d32: widen(row)})
		}
		holder := container.NewBitset(n)
		mask := container.NewBitset(n)
		// Odd trials draw a sparse holder set, so its non-zero word
		// list leaves words out.
		holderOdds := []int{2, 40}[trial%2]
		for v := 0; v < n; v++ {
			if rng.Intn(holderOdds) == 0 {
				holder.Set(v)
			}
			if rng.Intn(2) == 0 {
				mask.Set(v)
			}
		}
		if trial >= 3 {
			// As in the solver, no row's source is a candidate, so no
			// score is 0 and the floors above 0 get a candidate to
			// stop at.
			for _, u := range sources {
				mask.Words()[u>>6] &^= 1 << uint(u&63)
			}
		}
		lists := map[string][]int32{}
		for wi, w := range holder.Words() {
			if w != 0 {
				lists["nonzero"] = append(lists["nonzero"], int32(wi))
			}
			lists["all"] = append(lists["all"], int32(wi))
		}
		for _, sum := range []bool{false, true} {
			// The largest valid floor: the smallest defined score of
			// any candidate (a few small floors when there is none).
			top := int32(3)
			if _, score, ok := rs.PickMin(holder.Words(), mask.Words(), lists["all"], sum, 0, math.MaxInt32); ok {
				top = score
			}
			for _, budget := range []int32{-1, 0, 1, 2, 3, 5, 8, 128, 254, 255, 256, math.MaxInt32} {
				// Scalar reference: ascending ids, strict improvement,
				// scores below the budget only.
				wantV, wantScore, wantOK := sgraph.NodeID(0), int32(0), false
				for v := 0; v < n; v++ {
					if !holder.Contains(v) || !mask.Contains(v) {
						continue
					}
					score, ok := rs.Contribution(rs.Len(), sgraph.NodeID(v), sum)
					if !ok || score >= budget {
						continue
					}
					if !wantOK || score < wantScore {
						wantV, wantScore, wantOK = sgraph.NodeID(v), score, true
					}
				}
				for name, stack := range map[string]*DistRows{"u8": &rs, "int32": &wide} {
					for floor := int32(0); floor <= top; floor++ {
						for list, nz := range lists {
							gotV, gotScore, gotOK := stack.PickMin(holder.Words(), mask.Words(), nz, sum, floor, budget)
							if gotOK != wantOK || (wantOK && (gotV != wantV || gotScore != wantScore)) {
								t.Fatalf("trial %d %s %s sum=%v floor=%d budget=%d: PickMin = (%d,%d,%v), want (%d,%d,%v)",
									trial, name, list, sum, floor, budget, gotV, gotScore, gotOK, wantV, wantScore, wantOK)
							}
						}
					}
					if v, _, ok := stack.PickMin(holder.Words(), mask.Words(), nil, sum, 0, budget); ok {
						t.Fatalf("trial %d %s sum=%v budget=%d: empty word list picked %d", trial, name, sum, budget, v)
					}
				}
			}
		}
	}
}

// TestDistRowsClearDropsViews: Clear must nil every cached row view
// across the full backing capacity, so a pooled scratch cannot pin
// engine slabs.
func TestDistRowsClearDropsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(804))
	g := randomSignedGraph(rng, 20, 60, 0.3)
	m := mustMatrix(SPA, g, Options{})
	var rs DistRows
	for i := 0; i < 5; i++ {
		rs.Append(m.DistanceRow(sgraph.NodeID(i)))
	}
	rs.Reset() // length 0, capacity still holds the views
	rs.Clear()
	for _, r := range rs.rows[:cap(rs.rows)] {
		if r.d8 != nil || r.d32 != nil {
			t.Fatal("Clear left a row view in spare capacity")
		}
	}
	for _, d := range rs.d8[:cap(rs.d8)] {
		if d != nil {
			t.Fatal("Clear left a d8 view in spare capacity")
		}
	}
	if rs.Len() != 0 || rs.notU8 != 0 {
		t.Fatalf("Clear left Len=%d notU8=%d", rs.Len(), rs.notU8)
	}
}

// TestStatsDirectedSBPH: SBPH stats on the lazy engine, whose rows
// stream directed. A full scan measures the symmetrised relation and
// must match the packed engine bit for bit; a sampled scan streams
// whole directed rows and must match the directed measurement over the
// same sources, scored from each source's own row.
func TestStatsDirectedSBPH(t *testing.T) {
	rng := rand.New(rand.NewSource(805))
	g := randomSignedGraph(rng, 40, 200, 0.4)
	rel := mustNew(SBPH, g, Options{})
	sym, err := ComputeStats(rel, StatsOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The symmetrised run must agree with the packed engine bit for bit.
	mat, err := ComputeStats(mustMatrix(SBPH, g, Options{}), StatsOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sym.CompatiblePairs != mat.CompatiblePairs || sym.DistSum != mat.DistSum || sym.DistCount != mat.DistCount {
		t.Fatalf("symmetrised lazy stats %+v diverge from matrix %+v", sym, mat)
	}
	if sym.Kernels == "" || sym.Kernels != KernelsVariant() {
		t.Fatalf("stats Kernels = %q, want %q", sym.Kernels, KernelsVariant())
	}
	// Sampled scans stream the whole directed row as a proxy — the
	// canonical entry of a (v<u, u) pair lives in row v, which the
	// sample may not include — so a sampled scan must match the
	// directed reference over the same sources exactly (and cover
	// len(sources)·(n-1) pairs, not a halved upper triangle).
	n := g.NumNodes()
	sources := []sgraph.NodeID{3, 17, 38}
	var wantCompat, wantDistSum, wantDistCount int64
	for _, u := range sources {
		r := lazyRowOf(t, rel, u)
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			if v == u || !r.compatible(v) {
				continue
			}
			wantCompat++
			if d := r.dist[v]; d != noDist32 {
				wantDistSum += int64(d)
				wantDistCount++
			}
		}
	}
	sampled, err := ComputeStats(rel, StatsOptions{Workers: 2, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if wantPairs := int64(len(sources) * (n - 1)); sampled.Pairs != wantPairs {
		t.Fatalf("sampled Pairs = %d, want %d", sampled.Pairs, wantPairs)
	}
	if sampled.CompatiblePairs != wantCompat || sampled.DistSum != wantDistSum || sampled.DistCount != wantDistCount {
		t.Fatalf("sampled scan (%d,%d,%d) diverges from directed reference (%d,%d,%d)",
			sampled.CompatiblePairs, sampled.DistSum, sampled.DistCount, wantCompat, wantDistSum, wantDistCount)
	}
}
