package compat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// TestAndCountRowsMatchPerRow: the bulk RowAndCounter methods must
// return exactly what a per-row RowWords + container.AndCount loop
// does, on both packed engines — including sharded configurations
// where the row batch crosses shard boundaries and evicts residents.
func TestAndCountRowsMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 4; trial++ {
		n := 40 + rng.Intn(60)
		g := randomSignedGraph(rng, n, 4*n, 0.3)
		engines := []struct {
			name string
			rel  PackedRelation
		}{
			{"matrix", mustMatrix(SPO, g, Options{})},
			{"sharded", MustNewSharded(SPO, g, ShardedOptions{ShardRows: 7, MaxResidentShards: 2})},
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
			rc, ok := e.rel.(RowAndCounter)
			if !ok {
				t.Fatalf("trial %d %s: engine does not implement RowAndCounter", trial, e.name)
			}
			var wantSum int64
			want := make([]int32, len(us))
			for i, u := range us {
				c := int32(container.AndCount(e.rel.RowWords(u), mask.Words()))
				want[i] = c
				wantSum += int64(c)
			}
			gotSum, err := rc.AndCountRows(us, mask.Words())
			if err != nil {
				t.Fatalf("trial %d %s: AndCountRows: %v", trial, e.name, err)
			}
			if gotSum != wantSum {
				t.Fatalf("trial %d %s: AndCountRows = %d, want %d", trial, e.name, gotSum, wantSum)
			}
			got := make([]int32, len(us))
			if err := rc.AndCountRowsEach(us, mask.Words(), got); err != nil {
				t.Fatalf("trial %d %s: AndCountRowsEach: %v", trial, e.name, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: AndCountRowsEach[%d] (row %d) = %d, want %d",
						trial, e.name, i, us[i], got[i], want[i])
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
// at all to no limit, and over both word lists a caller may pass: the
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
		for k := 0; k < 1+rng.Intn(4); k++ {
			row := m.DistanceRow(sgraph.NodeID(rng.Intn(n)))
			rs.Append(row)
			wide.Append(DistRow{d32: row.distRowInto(nil)})
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
		lists := map[string][]int32{}
		for wi, w := range holder.Words() {
			if w != 0 {
				lists["nonzero"] = append(lists["nonzero"], int32(wi))
			}
			lists["all"] = append(lists["all"], int32(wi))
		}
		for _, sum := range []bool{false, true} {
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
					for list, nz := range lists {
						gotV, gotScore, gotOK := stack.PickMin(holder.Words(), mask.Words(), nz, sum, budget)
						if gotOK != wantOK || (wantOK && (gotV != wantV || gotScore != wantScore)) {
							t.Fatalf("trial %d %s %s sum=%v budget=%d: PickMin = (%d,%d,%v), want (%d,%d,%v)",
								trial, name, list, sum, budget, gotV, gotScore, gotOK, wantV, wantScore, wantOK)
						}
					}
					if v, _, ok := stack.PickMin(holder.Words(), mask.Words(), nil, sum, budget); ok {
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

// TestStatsDirectedSBPH: the DirectedSBPH escape hatch must restore
// the lazy engine's directed full-pair scan — different numbers from
// the default symmetrised measurement whenever the hop bound actually
// breaks symmetry, and n² pairs instead of the upper triangle's.
func TestStatsDirectedSBPH(t *testing.T) {
	rng := rand.New(rand.NewSource(805))
	g := randomSignedGraph(rng, 40, 200, 0.4)
	rel := MustNew(SBPH, g, Options{})
	sym, err := ComputeStats(rel, StatsOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := ComputeStats(rel, StatsOptions{Workers: 2, DirectedSBPH: true})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Pairs != dir.Pairs {
		t.Fatalf("pair universes diverge: sym %d, directed %d", sym.Pairs, dir.Pairs)
	}
	// Directed reference: every ordered pair scored from its own
	// source row, the historical measurement.
	n := g.NumNodes()
	var wantCompat, wantDistSum, wantDistCount int64
	rp := rel.(rowProvider)
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		r, err := rp.computeRow(u)
		if err != nil {
			t.Fatal(err)
		}
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			if v == u || !r.compatible(v) {
				continue
			}
			wantCompat++
			if d, ok := r.distance(v); ok {
				wantDistSum += int64(d)
				wantDistCount++
			}
		}
	}
	if dir.CompatiblePairs != wantCompat || dir.DistSum != wantDistSum || dir.DistCount != wantDistCount {
		t.Fatalf("directed stats (%d,%d,%d) diverge from reference (%d,%d,%d)",
			dir.CompatiblePairs, dir.DistSum, dir.DistCount, wantCompat, wantDistSum, wantDistCount)
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
	// directed measurement over the same sources exactly (and cover
	// len(sources)·(n-1) pairs, not a halved upper triangle).
	sources := []sgraph.NodeID{3, 17, 38}
	sampled, err := ComputeStats(rel, StatsOptions{Workers: 2, Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	sampledDir, err := ComputeStats(rel, StatsOptions{Workers: 2, Sources: sources, DirectedSBPH: true})
	if err != nil {
		t.Fatal(err)
	}
	if wantPairs := int64(len(sources) * (n - 1)); sampled.Pairs != wantPairs {
		t.Fatalf("sampled Pairs = %d, want %d", sampled.Pairs, wantPairs)
	}
	if sampled.CompatiblePairs != sampledDir.CompatiblePairs ||
		sampled.DistSum != sampledDir.DistSum || sampled.DistCount != sampledDir.DistCount {
		t.Fatalf("sampled scan %+v diverges from directed proxy %+v", sampled, sampledDir)
	}
}
