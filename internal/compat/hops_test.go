package compat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// TestDistanceAtLeastHops: a defined relation distance is the length
// of a path in the graph, so it is never below the unsigned BFS hop
// distance, and it is defined only between connected nodes. The team
// solver's seed screen rests on this bound: every member of a team
// priced below b lies within b−1 hops of its seed. Every kind is
// checked on the lazy engine, the matrix and a sharded engine with
// 7-row shards, over blockGraphs and the three dataset stand-ins,
// under blockOpts. The stand-ins' hubs make exact SBP's path count
// explode with length (at three edges the Wikipedia stand-in alone
// takes 35 s under -race), so it is capped at two edges there;
// blockGraphs check it to four.
func TestDistanceAtLeastHops(t *testing.T) {
	graphs := blockGraphs(rand.New(rand.NewSource(2503)))
	standIns := len(graphs)
	for _, load := range []struct {
		name  string
		build func() (*datasets.Dataset, error)
	}{
		{"slashdot", func() (*datasets.Dataset, error) { return datasets.SlashdotSim(1) }},
		{"epinions", func() (*datasets.Dataset, error) { return datasets.EpinionsSim(1, 0.01) }},
		{"wikipedia", func() (*datasets.Dataset, error) { return datasets.WikipediaSim(1, 0.02) }},
	} {
		d, err := load.build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, blockGraph{name: load.name, g: d.Graph})
	}
	var dist []int32
	for i, bg := range graphs {
		g := bg.g
		opts := blockOpts
		if i >= standIns {
			opts.Exact.MaxLen = 2
		}
		n := g.NumNodes()
		hops := make([][]int32, n)
		for u := range hops {
			hops[u] = signedbfs.Distances(g, sgraph.NodeID(u))
		}
		check := func(t *testing.T, engine string, u, v sgraph.NodeID, d int32, ok bool) {
			if !ok {
				return
			}
			if h := hops[u][v]; h == signedbfs.Unreachable || d < h {
				t.Fatalf("%s: distance(%d,%d) = %d, hop distance %d", engine, u, v, d, h)
			}
		}
		for _, k := range Kinds() {
			if !bg.runs(k) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", bg.name, k), func(t *testing.T) {
				lazy := MustNew(k, g, opts)
				for u := sgraph.NodeID(0); int(u) < n; u++ {
					for v := sgraph.NodeID(0); int(v) < n; v++ {
						d, ok, err := lazy.Distance(u, v)
						if err != nil {
							t.Fatalf("lazy: %v", err)
						}
						check(t, "lazy", u, v, d, ok)
					}
				}
				matrix := mustMatrix(k, g, opts)
				sharded := mustSharded(t, k, g, ShardedOptions{Options: opts, ShardRows: 7})
				defer sharded.Close()
				for name, m := range map[string]*ShardedMatrix{"matrix": matrix, "sharded": sharded} {
					for u := sgraph.NodeID(0); int(u) < n; u++ {
						dist = m.DistanceRowInto(u, dist)
						for v, d := range dist {
							check(t, name, u, sgraph.NodeID(v), d, d != noDist32)
						}
					}
				}
			})
		}
	}
}
