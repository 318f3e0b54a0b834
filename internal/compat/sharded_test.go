package compat

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// TestShardedAgreesAcrossShardSizes: the sharded engine must answer
// every Compatible and Distance query exactly as the full matrix and
// the lazy relation of the same kind, for shard heights 1 (every row
// its own shard), 7 (rows straddling shard boundaries), 64 (word
// aligned) and n (single shard), with a residency bound small enough
// that most shards live in the spill file and rows are served across
// spill/reload cycles — under both the mmap and the ReadAt spill
// backend (trials alternate so the whole grid covers both). The
// blockGraphs inputs span several 64-row sweep blocks, so shard
// heights below, at and above a block all cut them differently.
func TestShardedAgreesAcrossShardSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	opts := Options{Exact: balance.ExactOptions{MaxLen: 7}}
	var graphs []*sgraph.Graph
	for trial := 0; trial < 4; trial++ {
		n := 9 + rng.Intn(16)
		graphs = append(graphs, randomSignedGraph(rng, n, n+rng.Intn(4*n), 0.3))
	}
	small := len(graphs)
	for _, bg := range blockGraphs(rng) {
		graphs = append(graphs, bg.g)
	}
	for trial, g := range graphs {
		n := g.NumNodes()
		opts := opts
		if trial >= small {
			opts = blockOpts
		}
		for ki, k := range Kinds() {
			lazy := MustNew(k, g, opts)
			full := MustNewMatrix(k, g, MatrixOptions{Options: opts})
			for _, shardRows := range []int{1, 7, 64, n} {
				// Alternate the spill backend across the grid; every
				// (shard size, backend) pair is still exercised.
				noMmap := (trial+shardRows+ki)%2 == 0 || !spillMmapSupported
				sharded, err := NewSharded(k, g, ShardedOptions{
					Options:           opts,
					ShardRows:         shardRows,
					MaxResidentShards: 2,
					SpillDir:          t.TempDir(),
					DisableMmap:       noMmap,
				})
				if err != nil {
					t.Fatalf("trial %d %v rows=%d: NewSharded: %v", trial, k, shardRows, err)
				}
				// Interleave sources so consecutive queries hop between
				// shards and force spill/reload churn. The blockGraphs
				// inputs, with far more shards than the bound, churn
				// enough in one pass.
				passes := 2
				if trial >= small {
					passes = 1
				}
				for off := 0; off < passes; off++ {
					for i := 0; i < n; i++ {
						u := sgraph.NodeID((i*5 + off*3) % n)
						for v := sgraph.NodeID(0); int(v) < n; v++ {
							wantOK, err := lazy.Compatible(u, v)
							if err != nil {
								t.Fatal(err)
							}
							gotOK, err := sharded.Compatible(u, v)
							if err != nil {
								t.Fatalf("trial %d %v rows=%d: sharded Compatible: %v", trial, k, shardRows, err)
							}
							fullOK, _ := full.Compatible(u, v)
							if gotOK != wantOK || gotOK != fullOK {
								t.Fatalf("trial %d %v rows=%d: Compatible(%d,%d) sharded=%v matrix=%v lazy=%v",
									trial, k, shardRows, u, v, gotOK, fullOK, wantOK)
							}
							wantD, wantDef, err := lazy.Distance(u, v)
							if err != nil {
								t.Fatal(err)
							}
							gotD, gotDef, err := sharded.Distance(u, v)
							if err != nil {
								t.Fatal(err)
							}
							if gotDef != wantDef || (gotDef && gotD != wantD) {
								t.Fatalf("trial %d %v rows=%d: Distance(%d,%d) sharded=(%d,%v) lazy=(%d,%v)",
									trial, k, shardRows, u, v, gotD, gotDef, wantD, wantDef)
							}
						}
					}
				}
				if sharded.NumShards() > 2 && sharded.SpillLoads() == 0 {
					t.Fatalf("trial %d %v rows=%d: %d shards behind a bound of 2 but no spill reloads — spill path untested",
						trial, k, shardRows, sharded.NumShards())
				}
				if got := sharded.ResidentShards(); got > sharded.MaxResidentShards() {
					t.Fatalf("trial %d %v rows=%d: %d shards resident, bound %d",
						trial, k, shardRows, got, sharded.MaxResidentShards())
				}
				if err := sharded.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
		}
	}
}

// TestShardedRowsMatchMatrixRows: RowWords must be bit-identical to
// the full matrix's rows (the team pickers' word-parallel fast paths
// consume them raw), including after eviction and reload.
func TestShardedRowsMatchMatrixRows(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	g := randomSignedGraph(rng, 61, 240, 0.3) // 61 rows: shards of 7 straddle words
	for ki, k := range []Kind{SPO, SBPH, NNE} {
		full := MustNewMatrix(k, g, MatrixOptions{})
		sharded := MustNewSharded(k, g, ShardedOptions{
			ShardRows: 7, MaxResidentShards: 2,
			DisableMmap: ki%2 == 0, // cover both spill backends
		})
		defer sharded.Close()
		if sharded.WordsPerRow() != full.WordsPerRow() {
			t.Fatalf("%v: WordsPerRow sharded=%d matrix=%d", k, sharded.WordsPerRow(), full.WordsPerRow())
		}
		// Two passes: the second revisits rows whose shards were
		// evicted by the tail of the first.
		for pass := 0; pass < 2; pass++ {
			for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
				want := full.RowWords(u)
				got := sharded.RowWords(u)
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%v pass %d: RowWords(%d) word %d = %#x, want %#x", k, pass, u, w, got[w], want[w])
					}
				}
				for v := sgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
					wantD, wantOK := full.PairDistance(u, v)
					gotD, gotOK := sharded.PairDistance(u, v)
					if gotOK != wantOK || (gotOK && gotD != wantD) {
						t.Fatalf("%v pass %d: PairDistance(%d,%d) = (%d,%v), want (%d,%v)",
							k, pass, u, v, gotD, gotOK, wantD, wantOK)
					}
				}
			}
		}
	}
}

// TestShardedSymmetriseTransientBound: the blocked SBPH symmetrise
// must never snapshot more than one shard's bit slab, so its peak
// transient memory — snapshot plus the two resident tile shards — is
// bounded by two shards, unlike CompatMatrix's full-matrix copy
// (n²/8 bytes). Residency during the whole build must also respect
// the configured bound.
func TestShardedSymmetriseTransientBound(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	g := randomSignedGraph(rng, 160, 700, 0.3)
	const shardRows, maxResident = 16, 3
	m := MustNewSharded(SBPH, g, ShardedOptions{ShardRows: shardRows, MaxResidentShards: maxResident})
	defer m.Close()
	shardSlabBytes := shardRows * m.WordsPerRow() * 8
	if m.symSnapshotPeak == 0 {
		t.Fatal("SBPH build performed no symmetrise snapshot — tile pass did not run")
	}
	if m.symSnapshotPeak > shardSlabBytes {
		t.Fatalf("symmetrise snapshot peaked at %d bytes, want ≤ one shard bit slab (%d bytes)",
			m.symSnapshotPeak, shardSlabBytes)
	}
	if fullCopy := g.NumNodes() * m.WordsPerRow() * 8; m.symSnapshotPeak*2 >= fullCopy {
		t.Fatalf("snapshot %d bytes is not meaningfully below the full-matrix copy (%d bytes)",
			m.symSnapshotPeak, fullCopy)
	}
	if m.peakResident > maxResident {
		t.Fatalf("peak residency %d exceeded the bound %d during build", m.peakResident, maxResident)
	}
	// And the symmetrised result must still agree with the full matrix.
	full := MustNewMatrix(SBPH, g, MatrixOptions{})
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u += 7 {
		for v := sgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want, _ := full.Compatible(u, v)
			got, err := m.Compatible(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Compatible(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestShardedStatsMatchMatrix: ComputeStats streamed over sharded rows
// must agree with the full matrix for every kind — including SBPH,
// where both packed engines measure the symmetrised relation.
func TestShardedStatsMatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := randomSignedGraph(rng, 50, 220, 0.3)
	opts := Options{Exact: balance.ExactOptions{MaxLen: 6}}
	for _, k := range Kinds() {
		matStats, err := ComputeStats(MustNewMatrix(k, g, MatrixOptions{Options: opts}), StatsOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%v: matrix stats: %v", k, err)
		}
		sharded := MustNewSharded(k, g, ShardedOptions{Options: opts, ShardRows: 9, MaxResidentShards: 2})
		shardStats, err := ComputeStats(sharded, StatsOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%v: sharded stats: %v", k, err)
		}
		if *matStats != *shardStats {
			t.Fatalf("%v: stats diverge: matrix %+v sharded %+v", k, matStats, shardStats)
		}
		sharded.Close()
	}
}

// TestShardedDistanceOverflowFallback: a relation diameter beyond
// uint8 packing must rebuild every shard with int32 storage — across
// the spill boundary too.
func TestShardedDistanceOverflowFallback(t *testing.T) {
	const n = 300 // diameter 299 > 254
	b := sgraph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	g := b.MustBuild()
	m := MustNewSharded(SPA, g, ShardedOptions{ShardRows: 64, MaxResidentShards: 2})
	defer m.Close()
	if !m.wide {
		t.Fatal("expected int32 distance fallback")
	}
	lazy := MustNew(SPA, g, Options{})
	for _, v := range []sgraph.NodeID{1, 100, 254, 255, 299} {
		wantD, wantOK, err := lazy.Distance(0, v)
		if err != nil {
			t.Fatal(err)
		}
		gotD, gotOK, err := m.Distance(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || gotD != wantD {
			t.Fatalf("Distance(0,%d) sharded=(%d,%v) lazy=(%d,%v)", v, gotD, gotOK, wantD, wantOK)
		}
	}
}

// TestShardedBuildPropagatesErrors: an exhausted exact-SBP budget must
// abort the build, exactly as the other engines do.
func TestShardedBuildPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	g := randomSignedGraph(rng, 24, 120, 0.3)
	_, err := NewSharded(SBP, g, ShardedOptions{
		Options:   Options{Exact: balance.ExactOptions{MaxExpanded: 1}},
		ShardRows: 8,
	})
	if !errors.Is(err, balance.ErrBudgetExceeded) {
		t.Fatalf("NewSharded(SBP, budget=1) err = %v, want ErrBudgetExceeded", err)
	}
}

// TestShardedPrecomputeNoOp: a ShardedMatrix is precomputed by
// construction, so Precompute must return immediately.
func TestShardedPrecomputeNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g := randomSignedGraph(rng, 20, 70, 0.3)
	m := MustNewSharded(SPO, g, ShardedOptions{ShardRows: 4, MaxResidentShards: 2})
	defer m.Close()
	if err := Precompute(m, 4); err != nil {
		t.Fatalf("Precompute on sharded matrix: %v", err)
	}
}

// TestShardedDegenerateSizes: empty and single-node graphs must not
// panic, and single-shard configurations never create a spill file.
func TestShardedDegenerateSizes(t *testing.T) {
	g0 := sgraph.NewBuilder(0).MustBuild()
	m0, err := NewSharded(SPM, g0, ShardedOptions{})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	m0.Close()

	g1 := sgraph.NewBuilder(1).MustBuild()
	m1 := MustNewSharded(SPM, g1, ShardedOptions{ShardRows: 1000})
	defer m1.Close()
	if m1.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", m1.NumShards())
	}
	if ok, _ := m1.Compatible(0, 0); !ok {
		t.Fatal("single node must be self-compatible")
	}
	if d, ok, _ := m1.Distance(0, 0); !ok || d != 0 {
		t.Fatalf("self distance = (%d,%v), want (0,true)", d, ok)
	}
	if m1.SpillLoads() != 0 || m1.spill != nil {
		t.Fatal("single-shard matrix must never spill")
	}
}

// TestShardedEvictionWriteFailureKeepsVictimResident is the
// regression test for the eviction error path: when spilling a dirty
// victim fails, the victim must stay resident, dirty and LRU-tracked
// (its slot on disk may be stale or torn), the residency bookkeeping
// must not drift, the error must reach the query that needed the
// room — and once the fault clears, the very same eviction must
// succeed and the whole relation still agree with the full matrix.
func TestShardedEvictionWriteFailureKeepsVictimResident(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	n := 24
	g := randomSignedGraph(rng, n, 100, 0.3)
	full := MustNewMatrix(SPO, g, MatrixOptions{})
	m := MustNewSharded(SPO, g, ShardedOptions{ShardRows: 3, MaxResidentShards: 2})
	defer m.Close()

	errBoom := errors.New("injected spill write failure")
	m.mu.Lock()
	if m.spill == nil {
		m.mu.Unlock()
		t.Fatal("bounded build left no spill file")
	}
	m.spill.failWrite = errBoom
	residentBefore := m.resident
	cold := -1
	dirtyResident := 0
	for s := range m.shards {
		if m.shards[s].bits == nil {
			if cold < 0 {
				cold = s
			}
		} else if m.shards[s].dirty {
			dirtyResident++
		}
	}
	m.mu.Unlock()
	if cold < 0 || dirtyResident == 0 {
		t.Fatalf("fixture broke: cold=%d dirtyResident=%d", cold, dirtyResident)
	}

	u := sgraph.NodeID(cold * m.ShardRows())
	if _, err := m.Compatible(u, 0); !errors.Is(err, errBoom) {
		t.Fatalf("query over a failing eviction returned %v, want the injected fault", err)
	}

	m.mu.Lock()
	if m.resident != residentBefore {
		t.Errorf("resident count drifted: %d -> %d", residentBefore, m.resident)
	}
	count := 0
	for s := range m.shards {
		sh := &m.shards[s]
		if sh.bits == nil {
			continue
		}
		count++
		if sh.pins == 0 && !m.lru.Contains(s) {
			t.Errorf("resident shard %d fell out of the LRU after the failed eviction", s)
		}
		if !sh.dirty {
			t.Errorf("failed eviction cleared dirty on shard %d over a possibly torn slot", s)
		}
	}
	if count != m.resident {
		t.Errorf("%d shards actually resident, bookkeeping says %d", count, m.resident)
	}
	m.spill.failWrite = nil
	m.mu.Unlock()

	for u := sgraph.NodeID(0); int(u) < n; u++ {
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			want, _ := full.Compatible(u, v)
			got, err := m.Compatible(u, v)
			if err != nil {
				t.Fatalf("Compatible(%d,%d) after clearing the fault: %v", u, v, err)
			}
			if got != want {
				t.Fatalf("Compatible(%d,%d) = %v after the failed eviction, want %v", u, v, got, want)
			}
		}
	}
}

// TestShardedConcurrentQueries: concurrent point queries across the
// spill boundary must stay consistent (run under -race in CI).
func TestShardedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	n := 48
	g := randomSignedGraph(rng, n, 200, 0.3)
	full := MustNewMatrix(SPO, g, MatrixOptions{})
	m := MustNewSharded(SPO, g, ShardedOptions{ShardRows: 5, MaxResidentShards: 2})
	defer m.Close()
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 300; i++ {
				u := sgraph.NodeID((i*7 + w*11) % n)
				v := sgraph.NodeID((i*13 + w*3) % n)
				want, _ := full.Compatible(u, v)
				got, err := m.Compatible(u, v)
				if err != nil {
					errc <- err
					return
				}
				if got != want {
					errc <- errors.New("concurrent query diverged from full matrix")
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
