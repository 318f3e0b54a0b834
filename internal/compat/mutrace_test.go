// Mutation interleaving tests: viewed-slot relocation in the spill,
// post-mutation wide promotion, concurrent mutators racing readers
// across shard rebuilds and evictions, and snapshot lifetime. CI runs
// these under -race with tiny shard heights (-shard-rows=1,3) so every
// access crosses shard boundaries while invalidation and rebuilds are
// in flight.

package compat

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sgraph"
)

// TestShardSpillViewedSlotRelocation: a slot that served a zero-copy
// view is never overwritten — the next write relocates it append-only,
// the exposed view keeps its old bytes, reads of the new epoch see the
// new data, and the relocated slot refuses further views.
func TestShardSpillViewedSlotRelocation(t *testing.T) {
	const words, dist = 4, 16
	sizes := []int64{words*8 + dist, words*8 + dist}
	sp, err := newShardSpill(t.TempDir(), sizes, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	if !sp.canView() {
		t.Skip("zero-copy views unsupported on this platform")
	}
	rng := rand.New(rand.NewSource(721))
	oldBits, oldD8, _ := randomSlot(rng, words, dist, false)
	if err := sp.write(0, 1, oldBits, oldD8, nil); err != nil {
		t.Fatal(err)
	}
	vBits, vD8, _, ok := sp.view(0, 1, words, dist, 0)
	if !ok {
		t.Fatal("view of a mapped, epoch-matching slot must succeed")
	}
	newBits, newD8, _ := randomSlot(rng, words, dist, false)
	newBits[0] = ^oldBits[0] // guarantee observable difference
	if err := sp.write(0, 2, newBits, newD8, nil); err != nil {
		t.Fatal(err)
	}
	for i := range vBits {
		if vBits[i] != oldBits[i] {
			t.Fatalf("exposed view word %d changed under a later write", i)
		}
	}
	for i := range vD8 {
		if vD8[i] != oldD8[i] {
			t.Fatalf("exposed view dist byte %d changed under a later write", i)
		}
	}
	gotBits := make([]uint64, words)
	gotD8 := make([]uint8, dist)
	if _, err := sp.read(0, 2, gotBits, gotD8, nil, nil); err != nil {
		t.Fatalf("reading relocated slot: %v", err)
	}
	for i := range gotBits {
		if gotBits[i] != newBits[i] {
			t.Fatalf("relocated slot word %d = %#x, want %#x", i, gotBits[i], newBits[i])
		}
	}
	if _, _, _, ok := sp.view(0, 2, words, dist, 0); ok {
		t.Fatal("a relocated slot must not be served as a view")
	}
	if _, err := sp.read(0, 1, gotBits, gotD8, nil, nil); err == nil {
		t.Fatal("reading with a stale epoch must error")
	}
}

// TestShardedMutationOverflowPromotion: a mutation that stretches a
// relation distance beyond the uint8 packing must promote the engine
// to int32 storage mid-flight — on the matrix and on a spilling
// sharded engine, where the old spill file is retired while views of
// it stay alive.
func TestShardedMutationOverflowPromotion(t *testing.T) {
	// A 300-node path with a chord from end to end: diameter ≈150 fits
	// uint8; removing the chord stretches it to 299.
	const n = 300
	b := sgraph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	b.AddEdge(0, n-1, sgraph.Positive)
	g := b.MustBuild()
	remove := sgraph.Mutation{Op: sgraph.MutRemove, U: 0, V: n - 1}
	oracle := mustNew(SPA, sgraph.MustFromEdges(n, func() []sgraph.Edge {
		var es []sgraph.Edge
		for i := 0; i < n-1; i++ {
			es = append(es, sgraph.Edge{U: sgraph.NodeID(i), V: sgraph.NodeID(i + 1), Sign: sgraph.Positive})
		}
		return es
	}()), Options{})

	check := func(t *testing.T, eng Relation) {
		t.Helper()
		if _, err := eng.Mutate(remove); err != nil {
			t.Fatal(err)
		}
		for _, v := range []sgraph.NodeID{1, 100, 254, 255, 299} {
			wantD, wantOK, err := oracle.Distance(0, v)
			if err != nil {
				t.Fatal(err)
			}
			gotD, gotOK, err := eng.Distance(0, v)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || gotD != wantD {
				t.Fatalf("Distance(0,%d) = (%d,%v), want (%d,%v)", v, gotD, gotOK, wantD, wantOK)
			}
		}
	}

	t.Run("matrix", func(t *testing.T) {
		m := mustMatrix(SPA, g, Options{})
		if m.DistanceRow(0).d32 != nil {
			t.Fatal("chorded path should pack into uint8 at build time")
		}
		check(t, m)
		if m.DistanceRow(0).d32 == nil {
			t.Fatal("expected int32 promotion after the mutation")
		}
	})
	t.Run("sharded-spill", func(t *testing.T) {
		m := mustSharded(t, SPA, g, ShardedOptions{
			ShardRows: 64, MaxResidentShards: 2, SpillDir: t.TempDir(),
		})
		defer m.Close()
		// Hold a pre-mutation view; it must keep its old values across
		// the promotion (the retired spill stays mapped until Close).
		preRow := m.DistanceRow(0)
		preD, preOK := preRow.At(n - 1)
		if !preOK || preD != 1 {
			t.Fatalf("pre-mutation Distance(0,%d) view = (%d,%v), want (1,true)", n-1, preD, preOK)
		}
		check(t, m)
		if !m.wide {
			t.Fatal("expected int32 promotion after the mutation")
		}
		if d, ok := preRow.At(n - 1); !ok || d != 1 {
			t.Fatalf("pre-mutation view changed after promotion: (%d,%v)", d, ok)
		}
		// The stats surface must reflect the full-engine rebuild.
		if st := m.MutationStats(); st.StaleShards != 0 || st.ShardRebuilds < int64(m.NumShards()) {
			t.Fatalf("post-promotion stats %+v", st)
		}
	})
}

// TestShardedOverflowPromotionColdReaders: readers of a ring's shards,
// which they rebuild after a mutation staled every shard and which
// then spill to disk, race the wide promotion that mutation forces.
// The promotion retires the spill file, so it must stale every shard
// in the same critical section: a fresh cold shard seen without a
// spill file fails its reload. The graph is a chorded 300-node path,
// whose chord removal stretches a distance to 299, beside a separate
// ring. Run under -race in CI.
func TestShardedOverflowPromotionColdReaders(t *testing.T) {
	const path, ring = 300, 256
	const n = path + ring
	b := sgraph.NewBuilder(n)
	for i := 0; i < path-1; i++ {
		b.AddEdge(sgraph.NodeID(i), sgraph.NodeID(i+1), sgraph.Positive)
	}
	b.AddEdge(0, path-1, sgraph.Positive)
	for i := 0; i < ring; i++ {
		b.AddEdge(sgraph.NodeID(path+i), sgraph.NodeID(path+(i+1)%ring), sgraph.Positive)
	}
	g := b.MustBuild()
	remove := sgraph.Mutation{Op: sgraph.MutRemove, U: 0, V: path - 1}
	ringDist := func(i, j int) int32 {
		d := (i - j + ring) % ring
		return int32(min(d, ring-d))
	}
	for _, rows := range append(parseShardRows(t), 64) {
		for trial := 0; trial < 4; trial++ {
			m := mustSharded(t, SPA, g, ShardedOptions{
				ShardRows: rows, MaxResidentShards: 2, SpillDir: t.TempDir(),
			})
			res, err := m.Mutate(remove)
			if err != nil {
				t.Fatal(err)
			}
			if res.DirtyShards != m.NumShards() {
				t.Fatalf("rows=%d: the chord removal staled %d of %d shards, want all", rows, res.DirtyShards, m.NumShards())
			}
			var wg sync.WaitGroup
			var stop atomic.Bool
			errc := make(chan error, 4)
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						// Stride through the ring so that consecutive reads
						// land on different shards and reload cold ones.
						a, c := (i*67+r*29)%ring, (i*31+r)%ring
						d, ok, err := m.Distance(sgraph.NodeID(path+a), sgraph.NodeID(path+c))
						if err != nil {
							errc <- err
							return
						}
						if !ok || d != ringDist(a, c) {
							errc <- fmt.Errorf("Distance(%d,%d) = (%d,%v), want (%d,true)", path+a, path+c, d, ok, ringDist(a, c))
							return
						}
					}
				}(r)
			}
			// Reading the path's stale first row rebuilds it, which
			// overflows uint8 and promotes the engine.
			d, ok, err := m.Distance(0, path-1)
			stop.Store(true)
			wg.Wait()
			close(errc)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || d != path-1 {
				t.Fatalf("Distance(0,%d) = (%d,%v), want (%d,true)", path-1, d, ok, path-1)
			}
			for err := range errc {
				t.Fatalf("rows=%d trial %d: %v", rows, trial, err)
			}
			if !m.wide {
				t.Fatal("expected int32 promotion after the mutation")
			}
			m.Close()
		}
	}
}

// TestConcurrentMutationReaders: mutators flipping signs race readers
// doing point queries and row scans across every configured shard
// height, both spilling (two resident shards, the locked path) and
// fully resident (the lock-free table, republished by every
// invalidating mutation and rebuild) and opened from a saved file,
// plus the single-shard matrix configuration, while the engine is
// saved; every read and save must succeed (no errors, no panics) and
// the final state must agree with a fresh build. Run under -race in
// CI.
func TestConcurrentMutationReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(733))
	const n = 40
	g := randomSignedGraph(rng, n, 140, 0.3)
	type config struct {
		rows, maxRes int
		opened       bool
	}
	var configs []config
	for _, rows := range parseShardRows(t) {
		configs = append(configs, config{rows, 2, false}, config{rows, 0, false}, config{rows, 0, true})
	}
	configs = append(configs, config{n, 0, false})
	for _, c := range configs {
		rows, maxRes := c.rows, c.maxRes
		m := mustSharded(t, SPO, g, ShardedOptions{
			ShardRows: rows, MaxResidentShards: maxRes,
			SpillDir: t.TempDir(),
		})
		if c.opened {
			opened := saveOpen(t, m, g, true)
			m.Close()
			m = opened
		}
		savePath := filepath.Join(t.TempDir(), "engine.stpk")
		// Flips keep the edge set fixed, so every interleaving of
		// mutators needs no cross-goroutine ground-truth bookkeeping:
		// the final graph is fully determined by the flip counts.
		edges := collectEdges(g)
		var mutWG, readWG sync.WaitGroup
		var stop atomic.Bool
		errc := make(chan error, 8)
		for w := 0; w < 2; w++ {
			mutWG.Add(1)
			go func(w int) {
				defer mutWG.Done()
				for i := 0; i < 60; i++ {
					e := edges[(i*2+w)%len(edges)]
					if _, err := flipSign(m, e.U, e.V); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		mutWG.Add(1)
		go func() { // a saver: Save pins the epoch against the mutators
			defer mutWG.Done()
			for i := 0; i < 3; i++ {
				if err := m.Save(savePath); err != nil {
					errc <- err
					return
				}
			}
		}()
		for r := 0; r < 3; r++ {
			readWG.Add(1)
			go func(r int) {
				defer readWG.Done()
				for i := 0; !stop.Load(); i++ {
					u := sgraph.NodeID((i + r*13) % n)
					if _, err := m.Compatible(u, sgraph.NodeID((i*7)%n)); err != nil {
						errc <- err
						return
					}
					// Read every entry, so -race sees any unsynchronised
					// write to the row data the mutators rebuild.
					if len(widen(m.DistanceRow(u))) != n {
						errc <- errTruncatedRow
						return
					}
				}
			}(r)
		}
		mutWG.Wait()
		stop.Store(true)
		readWG.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("rows=%d maxRes=%d opened=%v: %v", rows, maxRes, c.opened, err)
		}
		// 120 flips across 20 edge slots: compare against fresh build.
		oracle := mustNew(SPO, m.Graph(), Options{})
		checkAgainstOracle(t, -1, "post-race", m, oracleTable(t, oracle))
		m.Close()
	}
}

// errTruncatedRow is a sentinel for the race readers above.
var errTruncatedRow = &truncatedRowError{}

type truncatedRowError struct{}

func (*truncatedRowError) Error() string { return "DistanceRow returned a short row" }

// collectEdges flattens g's edge set (u < v).
func collectEdges(g *sgraph.Graph) []sgraph.Edge {
	var edges []sgraph.Edge
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		g.Neighbors(u, func(v sgraph.NodeID, s sgraph.Sign) bool {
			if u < v {
				edges = append(edges, sgraph.Edge{U: u, V: v, Sign: s})
			}
			return true
		})
	}
	return edges
}

// flipSign applies a sign flip through the Relation interface.
func flipSign(m Relation, u, v sgraph.NodeID) (MutationResult, error) {
	return m.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: u, V: v})
}

// TestSnapshotLifetime: a snapshot pins the graph epoch — mutations
// block until it is released, queries under it stay consistent, and a
// view handed out before a mutation keeps its values afterwards.
func TestSnapshotLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(737))
	const n = 30
	g := randomSignedGraph(rng, n, 90, 0.3)
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 4, MaxResidentShards: 2, SpillDir: t.TempDir()})
	defer m.Close()
	edges := collectEdges(g)

	snap := m.AcquireSnapshot()
	if m.Epoch() != 0 {
		t.Fatalf("snapshot epoch = %d, want 0", m.Epoch())
	}
	preRow := m.DistanceRow(0)
	mutated := make(chan struct{})
	go func() {
		defer close(mutated)
		if _, err := flipSign(m, edges[0].U, edges[0].V); err != nil {
			t.Error(err)
		}
	}()
	// The mutation must not land while the snapshot is held.
	for i := 0; i < 50; i++ {
		if m.Epoch() != 0 {
			t.Fatal("mutation applied while a snapshot was held")
		}
	}
	select {
	case <-mutated:
		t.Fatal("mutation completed while a snapshot was held")
	default:
	}
	snap.Release()
	<-mutated
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d after release, want 1", m.Epoch())
	}
	// The pre-mutation view must still carry epoch-0 values even after
	// the touched shards rebuild and the LRU churns.
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		if _, err := m.Compatible(u, 0); err != nil {
			t.Fatal(err)
		}
	}
	oracle0 := mustNew(SPO, g, Options{})
	for v := sgraph.NodeID(0); int(v) < n; v++ {
		wantD, wantOK, err := oracle0.Distance(0, v)
		if err != nil {
			t.Fatal(err)
		}
		gotD, gotOK := preRow.At(v)
		if gotOK != wantOK || (wantOK && gotD != wantD) {
			t.Fatalf("pre-mutation row entry %d changed: (%d,%v), want (%d,%v)", v, gotD, gotOK, wantD, wantOK)
		}
	}
	// Releasing the zero snapshot is a no-op; double release of a live
	// one is the caller's bug, not exercised here.
	var zero Snapshot
	zero.Release()
}
