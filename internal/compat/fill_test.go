package compat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// TestLocalityOrder: on every blockGraphs input — split's separate
// components and isolated nodes included — the sweeps' locality order
// is a deterministic permutation of the node ids that starts at a
// highest-degree node. The packed builds sweep the graph relabelled
// into that order, so at shard heights 1, 7 and 64 each shard's touched
// set must still be, in the original ids, the union of its sources'
// plain-BFS reach over the original graph.
func TestLocalityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, bg := range blockGraphs(rng) {
		g, n := bg.g, bg.g.NumNodes()
		order := localityOrder(g)
		if !slices.Equal(order, localityOrder(g)) {
			t.Fatalf("%s: two orders of one graph differ", bg.name)
		}
		seen := make([]bool, n)
		for _, u := range order {
			if u < 0 || int(u) >= n || seen[u] {
				t.Fatalf("%s: order %v is not a permutation of 0..%d", bg.name, order, n-1)
			}
			seen[u] = true
		}
		if len(order) != n {
			t.Fatalf("%s: order has %d nodes, want %d", bg.name, len(order), n)
		}
		for u := sgraph.NodeID(0); int(u) < n; u++ {
			if g.Degree(u) > g.Degree(order[0]) {
				t.Fatalf("%s: order starts at node %d of degree %d, node %d has %d",
					bg.name, order[0], g.Degree(order[0]), u, g.Degree(u))
			}
		}

		scratch := signedbfs.NewScratch(n)
		var dist []int32
		for _, rows := range []int{1, 7, 64} {
			if rows >= n {
				continue // one shard records no touched set
			}
			for _, k := range []Kind{SPO, SPM, NNE} {
				m := mustSharded(t, k, g, ShardedOptions{ShardRows: rows})
				for s := range m.shards {
					want := make([]uint64, m.stride)
					for u := s * rows; u < s*rows+m.shards[s].rows; u++ {
						dist = signedbfs.DistancesInto(g, sgraph.NodeID(u), dist, scratch)
						for v, d := range dist {
							if d != signedbfs.Unreachable {
								setWordBit(want, sgraph.NodeID(v))
							}
						}
					}
					if !slices.Equal(m.shards[s].touched, want) {
						t.Fatalf("%s %v rows=%d: shard %d touched %x, want %x", bg.name, k, rows, s, m.shards[s].touched, want)
					}
				}
				m.Close()
			}
		}
	}
}
