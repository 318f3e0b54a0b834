package compat

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// TestDistanceRowAgreesAcrossShardSizes: DistanceRow and
// DistanceRowInto must agree entry-for-entry with the point-query
// Distance on both packed engines, for shard heights 1
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
				var intoFull, intoSharded []int32 // reused across rows: the Into contract
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < n; i++ {
						u := sgraph.NodeID((i*5 + pass*3) % n)
						fullRow := full.DistanceRow(u)
						shardRow := sharded.DistanceRow(u)
						intoFull = full.DistanceRowInto(u, intoFull)
						intoSharded = sharded.DistanceRowInto(u, intoSharded)
						if fullRow.Len() != n || shardRow.Len() != n ||
							len(intoFull) != n || len(intoSharded) != n {
							t.Fatalf("trial %d %v rows=%d: row lengths %d/%d/%d/%d, want %d",
								trial, k, shardRows, fullRow.Len(), shardRow.Len(), len(intoFull), len(intoSharded), n)
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
							for label, wide := range map[string][]int32{"matrix": intoFull, "sharded": intoSharded} {
								got := wide[v]
								if wantOK && got != wantD {
									t.Fatalf("trial %d %v rows=%d: %s DistanceRowInto(%d)[%d] = %d, want %d",
										trial, k, shardRows, label, u, v, got, wantD)
								}
								if !wantOK && got != noDist32 {
									t.Fatalf("trial %d %v rows=%d: %s DistanceRowInto(%d)[%d] = %d, want -1",
										trial, k, shardRows, label, u, v, got)
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
	if got := full.DistanceRowInto(299, nil); got[0] != 299 {
		t.Fatalf("wide DistanceRowInto(299)[0] = %d, want 299", got[0])
	}
}
