package compat

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// TestDistanceRowAgreesAcrossShardSizes: DistanceRow must agree
// entry-for-entry with the point-query Distance on both packed engines, for shard heights 1
// (every row its own shard), 7 (rows straddling shard boundaries), 64
// (word aligned) and n (single shard), with a residency bound of 2 so
// most rows are served across spill/reload cycles. Two interleaved
// passes revisit rows whose shards were evicted by the first.
func TestDistanceRowAgreesAcrossShardSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	opts := Options{Exact: balance.ExactOptions{MaxLen: 7}}
	for trial := 0; trial < 3; trial++ {
		n := 9 + rng.Intn(16)
		g := randomSignedGraph(rng, n, n+rng.Intn(4*n), 0.3)
		for _, shardRows := range []int{1, 7, 64, n} {
			for _, k := range Kinds() {
				full := mustMatrix(k, g, opts)
				sharded, err := NewSharded(k, g, ShardedOptions{
					Options:           opts,
					ShardRows:         shardRows,
					MaxResidentShards: 2,
					SpillDir:          t.TempDir(),
				})
				if err != nil {
					t.Fatalf("trial %d %v rows=%d: NewSharded: %v", trial, k, shardRows, err)
				}
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < n; i++ {
						u := sgraph.NodeID((i*5 + pass*3) % n)
						fullRow := full.DistanceRow(u)
						shardRow := sharded.DistanceRow(u)
						if fullRow.Len() != n || shardRow.Len() != n {
							t.Fatalf("trial %d %v rows=%d: row lengths %d/%d, want %d",
								trial, k, shardRows, fullRow.Len(), shardRow.Len(), n)
						}
						for v := sgraph.NodeID(0); int(v) < n; v++ {
							wantD, wantOK, err := full.Distance(u, v)
							if err != nil {
								t.Fatalf("trial %d %v rows=%d: Distance(%d,%d): %v", trial, k, shardRows, u, v, err)
							}
							for label, row := range map[string]DistRow{"matrix": fullRow, "sharded": shardRow} {
								d, ok := row.At(v)
								if ok != wantOK || (ok && d != wantD) {
									t.Fatalf("trial %d %v rows=%d pass %d: %s DistanceRow(%d).At(%d) = (%d,%v), want (%d,%v)",
										trial, k, shardRows, pass, label, u, v, d, ok, wantD, wantOK)
								}
							}
						}
					}
				}
				if sharded.NumShards() > 2 && sharded.SpillLoads() == 0 {
					t.Fatalf("trial %d %v rows=%d: no spill reloads — the cold-row path went untested", trial, k, shardRows)
				}
				if err := sharded.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
		}
	}
}

// TestDistanceRowWidePacking: a graph whose relation diameter exceeds
// uint8 packing must serve DistanceRow from the int32 fallback on both
// engines — the same values the uint8 path would widen to.
func TestDistanceRowWidePacking(t *testing.T) {
	// A positive path of 300 nodes: distance(0, 299) = 299 > 254.
	const n = 300
	edges := make([]sgraph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, sgraph.Edge{U: sgraph.NodeID(i), V: sgraph.NodeID(i + 1), Sign: sgraph.Positive})
	}
	g := sgraph.MustFromEdges(n, edges)
	full := mustMatrix(NNE, g, Options{})
	sharded := mustSharded(t, NNE, g, ShardedOptions{ShardRows: 64, MaxResidentShards: 2})
	defer sharded.Close()
	for _, u := range []sgraph.NodeID{0, 150, 299} {
		fullRow := full.DistanceRow(u)
		shardRow := sharded.DistanceRow(u)
		for v := sgraph.NodeID(0); int(v) < n; v += 7 {
			want := int32(v - u)
			if v < u {
				want = int32(u - v)
			}
			for label, row := range map[string]DistRow{"matrix": fullRow, "sharded": shardRow} {
				d, ok := row.At(v)
				if !ok || d != want {
					t.Fatalf("%s wide DistanceRow(%d).At(%d) = (%d,%v), want (%d,true)", label, u, v, d, ok, want)
				}
			}
		}
	}
	if d, ok := full.DistanceRow(299).At(0); !ok || d != 299 {
		t.Fatalf("wide DistanceRow(299).At(0) = (%d,%v), want (299,true)", d, ok)
	}
}

// widen copies a packed distance row into int32 lanes, noDist32 where
// the distance is undefined.
func widen(r DistRow) []int32 {
	out := make([]int32, r.Len())
	for v := range out {
		out[v] = noDist32
		if d, ok := r.At(sgraph.NodeID(v)); ok {
			out[v] = d
		}
	}
	return out
}
