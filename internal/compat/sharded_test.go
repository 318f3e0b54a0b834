package compat

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// raceShardRows selects the shard heights for the interleaving tests
// (eviction, concurrent mutation); CI runs them under -race with tiny
// heights (1 and 3) so that every query crosses shard boundaries and
// the demand path, eviction and rebuilds constantly interleave.
var raceShardRows = flag.String("shard-rows", "1,3", "comma-separated shard heights for the eviction/mutation interleaving tests")

// mustSharded builds a packed engine, failing tb on error.
func mustSharded(tb testing.TB, k Kind, g *sgraph.Graph, opts ShardedOptions) *ShardedMatrix {
	tb.Helper()
	m, err := NewSharded(k, g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func parseShardRows(t *testing.T) []int {
	t.Helper()
	var heights []int
	for _, part := range strings.Split(*raceShardRows, ",") {
		h, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || h <= 0 {
			t.Fatalf("bad -shard-rows entry %q", part)
		}
		heights = append(heights, h)
	}
	return heights
}

// TestShardedAgreesAcrossShardSizes: the sharded engine must answer
// every Compatible and Distance query exactly as the full matrix and
// the lazy relation of the same kind, for shard heights 1 (every row
// its own shard), 7 (rows straddling shard boundaries), 64 (word
// aligned) and n (single shard), with a residency bound small enough
// that most shards live in the spill file and rows are served across
// spill/reload cycles — under both the mmap and the ReadAt spill
// backend (trials alternate so the whole grid covers both). Every
// spilling engine is then saved and reopened, through the same
// backend, and must answer bit-identically once opened. The
// blockGraphs inputs span several 64-row sweep blocks, so shard
// heights below, at and above a block all cut them differently.
func TestShardedAgreesAcrossShardSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	opts := Options{Exact: balance.ExactOptions{MaxLen: 7}}
	var graphs []blockGraph
	for trial := 0; trial < 4; trial++ {
		n := 9 + rng.Intn(16)
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
		for ki, k := range Kinds() {
			if !bg.runs(k) {
				continue
			}
			lazy := mustNew(k, g, opts)
			full := mustMatrix(k, g, opts)
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
				opened := saveOpen(t, sharded, g, !noMmap)
				checkOpenedAgrees(t, fmt.Sprintf("trial %d %v rows=%d opened", trial, k, shardRows), sharded, opened)
				opened.Close()
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
		full := mustMatrix(k, g, Options{})
		sharded := mustSharded(t, k, g, ShardedOptions{
			ShardRows: 7, MaxResidentShards: 2,
			DisableMmap: ki%2 == 0, // cover both spill backends
		})
		defer sharded.Close()
		if sharded.stride != full.stride {
			t.Fatalf("%v: row words sharded=%d matrix=%d", k, sharded.stride, full.stride)
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
					wantD, wantOK, wantErr := full.Distance(u, v)
					gotD, gotOK, gotErr := sharded.Distance(u, v)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("%v pass %d: Distance(%d,%d) errors: matrix %v, sharded %v", k, pass, u, v, wantErr, gotErr)
					}
					if gotOK != wantOK || (gotOK && gotD != wantD) {
						t.Fatalf("%v pass %d: Distance(%d,%d) = (%d,%v), want (%d,%v)",
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
// bounded by two shards, unlike a full-matrix copy (n²/8 bytes). Residency during the whole build must also respect
// the configured bound.
func TestShardedSymmetriseTransientBound(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	g := randomSignedGraph(rng, 160, 700, 0.3)
	const shardRows, maxResident = 16, 3
	m := mustSharded(t, SBPH, g, ShardedOptions{ShardRows: shardRows, MaxResidentShards: maxResident})
	defer m.Close()
	shardSlabBytes := shardRows * m.stride * 8
	if m.symSnapshotPeak == 0 {
		t.Fatal("SBPH build performed no symmetrise snapshot — tile pass did not run")
	}
	if m.symSnapshotPeak > shardSlabBytes {
		t.Fatalf("symmetrise snapshot peaked at %d bytes, want ≤ one shard bit slab (%d bytes)",
			m.symSnapshotPeak, shardSlabBytes)
	}
	if fullCopy := g.NumNodes() * m.stride * 8; m.symSnapshotPeak*2 >= fullCopy {
		t.Fatalf("snapshot %d bytes is not meaningfully below the full-matrix copy (%d bytes)",
			m.symSnapshotPeak, fullCopy)
	}
	if m.peakResident > maxResident {
		t.Fatalf("peak residency %d exceeded the bound %d during build", m.peakResident, maxResident)
	}
	// And the symmetrised result must still agree with the full matrix.
	full := mustMatrix(SBPH, g, Options{})
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

// TestShardedOverflowWideRetryAtBuild: on a 300-node positive path the
// SBPH distances reach 299, past uint8 packing, so a spilling build
// overflows and refills every shard wide. The refilled rows must equal
// the lazy engine's; afterwards zero-copy views are on exactly when the
// spill file allows them, and the engine reports a fresh construction:
// no rebuilds, no stale shards, epoch 0, and no rebuild scratch kept.
func TestShardedOverflowWideRetryAtBuild(t *testing.T) {
	const n = 300
	b := sgraph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	g := b.MustBuild()
	m := mustSharded(t, SBPH, g, ShardedOptions{ShardRows: 64, MaxResidentShards: 2})
	defer m.Close()
	if st := m.LiveStats(); st.ShardRebuilds != 0 || st.StaleShards != 0 || st.Epoch != 0 {
		t.Fatalf("after NewSharded: rebuilds %d, stale %d, epoch %d; want 0, 0, 0",
			st.ShardRebuilds, st.StaleShards, st.Epoch)
	}
	m.mu.Lock()
	wide, spill, views, scratch := m.wide, m.spill, m.views, m.rebuildScratch
	m.mu.Unlock()
	if !wide {
		t.Fatal("a distance of 299 did not promote the build to int32 storage")
	}
	if spill == nil {
		t.Fatal("a 5-shard build with 2 resident shards never spilled")
	}
	if views != spill.canView() {
		t.Fatalf("views = %v, want spill.canView() = %v", views, spill.canView())
	}
	if scratch != nil {
		t.Fatal("construction kept rebuild scratch")
	}
	if m.peakResident > m.MaxResidentShards() {
		t.Fatalf("peak residency %d exceeded the bound %d", m.peakResident, m.MaxResidentShards())
	}
	lazy := mustNew(SBPH, g, Options{})
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		words := m.RowWords(u)
		dist := m.DistanceRow(u)
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			want, err := lazy.Compatible(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got := words[int(v)>>6]&(1<<uint(int(v)&63)) != 0; got != want {
				t.Fatalf("Compatible(%d,%d) = %v, lazy %v", u, v, got, want)
			}
			wantD, wantOK, err := lazy.Distance(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if gotD, gotOK := dist.At(v); gotOK != wantOK || (gotOK && gotD != wantD) {
				t.Fatalf("Distance(%d,%d) = (%d,%v), lazy (%d,%v)", u, v, gotD, gotOK, wantD, wantOK)
			}
		}
	}
}

// TestShardedStatsMatchMatrix: ComputeStats streamed over sharded rows
// must agree with the single-shard matrix for every kind — including
// SBPH, where both configurations measure the symmetrised relation.
func TestShardedStatsMatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := randomSignedGraph(rng, 50, 220, 0.3)
	opts := Options{Exact: balance.ExactOptions{MaxLen: 6}}
	for _, k := range Kinds() {
		matStats, err := ComputeStats(mustMatrix(k, g, opts), StatsOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%v: matrix stats: %v", k, err)
		}
		sharded := mustSharded(t, k, g, ShardedOptions{Options: opts, ShardRows: 9, MaxResidentShards: 2})
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
	m := mustSharded(t, SPA, g, ShardedOptions{ShardRows: 64, MaxResidentShards: 2})
	defer m.Close()
	if !m.wide {
		t.Fatal("expected int32 distance fallback")
	}
	lazy := mustNew(SPA, g, Options{})
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
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 4, MaxResidentShards: 2})
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
	m1 := mustSharded(t, SPM, g1, ShardedOptions{ShardRows: 1000})
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
	full := mustMatrix(SPO, g, Options{})
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 3, MaxResidentShards: 2})
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
	full := mustMatrix(SPO, g, Options{})
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 5, MaxResidentShards: 2})
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

// TestShardedEvictionInterleavings is the dedicated -race workout for
// the spilling configuration: for every configured tiny shard height
// and both spill backends, sequential sweepers and random-access
// workers hammer a matrix with a residency bound of 2, so reload and
// eviction interleave in every order. Results must stay identical to
// the full matrix throughout.
func TestShardedEvictionInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	n := 40
	g := randomSignedGraph(rng, n, 170, 0.3)
	full := mustMatrix(SPO, g, Options{})
	for _, shardRows := range parseShardRows(t) {
		for _, noMmap := range spillBackends(t) {
			m := mustSharded(t, SPO, g, ShardedOptions{
				ShardRows: shardRows, MaxResidentShards: 2,
				DisableMmap: noMmap, SpillDir: t.TempDir(),
			})
			var wg sync.WaitGroup
			errc := make(chan error, 4)
			for w := 0; w < 2; w++ { // sequential sweepers
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for pass := 0; pass < 3; pass++ {
						for u := sgraph.NodeID(0); int(u) < n; u++ {
							v := sgraph.NodeID((int(u)*7 + w) % n)
							want, _ := full.Compatible(u, v)
							got, err := m.Compatible(u, v)
							if err != nil {
								errc <- err
								return
							}
							if got != want {
								errc <- errors.New("sweeper diverged from full matrix")
								return
							}
						}
					}
				}(w)
			}
			for w := 0; w < 2; w++ { // random access
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(500 + w)))
					for i := 0; i < 3*n; i++ {
						u := sgraph.NodeID(r.Intn(n))
						v := sgraph.NodeID(r.Intn(n))
						wantD, wantOK, wantErr := full.Distance(u, v)
						gotD, gotOK, gotErr := m.Distance(u, v)
						if wantErr != nil || gotErr != nil {
							errc <- fmt.Errorf("random worker: Distance(%d,%d): matrix %v, sharded %v", u, v, wantErr, gotErr)
							return
						}
						if gotOK != wantOK || (gotOK && gotD != wantD) {
							errc <- errors.New("random worker diverged from full matrix")
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("rows=%d noMmap=%v: %v", shardRows, noMmap, err)
			}
			if got := m.ResidentShards(); got > m.MaxResidentShards() {
				t.Fatalf("rows=%d noMmap=%v: %d shards resident, bound %d", shardRows, noMmap, got, m.MaxResidentShards())
			}
			if err := m.Close(); err != nil {
				t.Fatalf("rows=%d noMmap=%v: Close: %v", shardRows, noMmap, err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("rows=%d noMmap=%v: second Close: %v", shardRows, noMmap, err)
			}
		}
	}
}

// TestShardedLiveStatsScrape: a /stats scrape must be safe while
// queries are running — the serving daemon reads LiveStats from its
// HTTP handler with solves in flight. Run under -race: the counters
// are atomics, the residency gauge takes the lock briefly, so no torn
// reads and no contention with the demand path.
func TestShardedLiveStatsScrape(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	n := 64
	g := randomSignedGraph(rng, n, 280, 0.3)
	m := mustSharded(t, SPO, g, ShardedOptions{
		ShardRows: 4, MaxResidentShards: 2,
		SpillDir: t.TempDir(),
	})
	defer m.Close()

	stop := make(chan struct{})
	var scraper, traffic sync.WaitGroup
	scraper.Add(1)
	go func() { // the scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := m.LiveStats()
			if st.NumShards != m.NumShards() || st.ShardRows != 4 ||
				st.MaxResidentShards != m.MaxResidentShards() {
				t.Errorf("snapshot geometry wrong: %+v", st)
				return
			}
			if st.ResidentShards > st.MaxResidentShards {
				t.Errorf("snapshot residency %d over bound %d", st.ResidentShards, st.MaxResidentShards)
				return
			}
		}
	}()
	for workers := 0; workers < 2; workers++ { // the traffic
		traffic.Add(1)
		go func(seed int64) {
			defer traffic.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*n; i++ {
				u := sgraph.NodeID(r.Intn(n))
				if i%2 == 0 {
					u = sgraph.NodeID(i % n)
				}
				if _, err := m.Compatible(u, sgraph.NodeID(r.Intn(n))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(414 + workers))
	}
	traffic.Wait()
	close(stop)
	scraper.Wait()
	if st := m.LiveStats(); st.SpillLoads == 0 {
		t.Fatal("traffic over a spilled matrix recorded no spill loads")
	}
}

// TestShardedResidentTable: a fully resident engine — multi-shard, or
// the single-shard matrix configuration — serves fresh rows from its
// published table without taking the engine mutex. Every mutation
// stales every shard: its DirtyShards is the number of shards that
// were fresh before it, and afterwards every shard is stale and out of
// the table (readers fall back to the locked rebuild path), for every
// relation kind at shard heights 1, 7, 16, n and the -shard-rows ones.
// The requeried rows equal the lazy oracle's, and their rebuilds
// republish exactly the fresh shards; odd flips requery only the first
// third of the rows, so the next flip finds some shards still stale. A
// spilling engine publishes no table.
func TestShardedResidentTable(t *testing.T) {
	rng := rand.New(rand.NewSource(415))
	n := 90
	g := randomSignedGraph(rng, n, 110, 0.3)
	spilling := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 16, MaxResidentShards: 2, SpillDir: t.TempDir()})
	defer spilling.Close()
	if spilling.table.Load() != nil {
		t.Fatal("a spilling engine published a lock-free table")
	}
	edges := collectEdges(g)
	heights := append([]int{1, 7, 16, n}, parseShardRows(t)...)
	slices.Sort(heights)
	heights = slices.Compact(heights)
	for _, k := range []Kind{DPE, SPA, SPM, SPO, NNE, SBPH} {
		for _, rows := range heights {
			checkResidentTable(t, k, g, rows, edges[:6])
		}
	}
}

// checkResidentTable runs TestShardedResidentTable's checks on one
// engine of kind k and shard height rows over g, flipping each of
// edges in turn.
func checkResidentTable(t *testing.T, k Kind, g *sgraph.Graph, rows int, edges []sgraph.Edge) {
	t.Helper()
	n := g.NumNodes()
	m := mustSharded(t, k, g, ShardedOptions{ShardRows: rows})
	defer m.Close()
	oracle := mustNew(k, g, Options{})
	// With m.mu held by the test, every read must still complete.
	done := make(chan error, 1)
	m.mu.Lock()
	go func() {
		mask := make([]uint64, m.stride)
		fillWords(mask, n)
		us := make([]sgraph.NodeID, n)
		for u := range us {
			us[u] = sgraph.NodeID(u)
		}
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			_ = m.RowWords(u)
			_ = m.DistanceRow(u)
			if _, err := m.Compatible(u, 0); err != nil {
				done <- err
				return
			}
		}
		_, err := m.AndCountRows(us, mask)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%v rows=%d: resident reads blocked on the engine mutex", k, rows)
	}
	m.mu.Unlock()

	for i, e := range edges {
		fresh := m.NumShards() - m.MutationStats().StaleShards
		res, err := flipSign(m, e.U, e.V)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flipSign(oracle, e.U, e.V); err != nil {
			t.Fatal(err)
		}
		if res.DirtyShards != fresh {
			t.Fatalf("%v rows=%d flip %d: %d dirty shards, want the %d fresh before it", k, rows, i, res.DirtyShards, fresh)
		}
		if st := m.MutationStats(); st.StaleShards != m.NumShards() {
			t.Fatalf("%v rows=%d flip %d: %d of %d shards stale", k, rows, i, st.StaleShards, m.NumShards())
		}
		for s, sl := range m.table.Load().slabs {
			if sl.bits != nil {
				t.Fatalf("%v rows=%d flip %d: shard %d still in the table", k, rows, i, s)
			}
		}
		upto := n
		if i%2 == 1 {
			upto = n / 3
		}
		for u := sgraph.NodeID(0); int(u) < upto; u++ {
			for v := sgraph.NodeID(0); int(v) < n; v++ {
				want, _ := oracle.Compatible(u, v)
				wd, wok, _ := oracle.Distance(u, v)
				got, err := m.Compatible(u, v)
				if err != nil {
					t.Fatal(err)
				}
				gd, gok, _ := m.Distance(u, v)
				if got != want || gok != wok || (gok && gd != wd) {
					t.Fatalf("%v rows=%d flip %d: (%d,%d) = %v (%d,%v), want %v (%d,%v)", k, rows, i, u, v, got, gd, gok, want, wd, wok)
				}
			}
		}
		tab := m.table.Load()
		m.mu.Lock()
		for s := range m.shards {
			if inTable := tab.slabs[s].bits != nil; inTable == m.shards[s].stale {
				t.Fatalf("%v rows=%d flip %d: shard %d stale=%v but in table=%v", k, rows, i, s, m.shards[s].stale, inTable)
			}
			if upto == n && m.shards[s].stale {
				t.Fatalf("%v rows=%d flip %d: shard %d still stale after every row was read", k, rows, i, s)
			}
		}
		m.mu.Unlock()
	}
}
