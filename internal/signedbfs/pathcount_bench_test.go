// The E11 ablation lives here rather than in the root benchmarks
// because its exact side, CountPathsBig, is a test oracle of this
// package; an external test package sees it.

package signedbfs_test

import (
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

func BenchmarkPathCounting(b *testing.B) {
	// E11: saturating uint64 counters vs exact big.Int (Algorithm 1).
	d, err := datasets.EpinionsSim(1, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph
	rng := rand.New(rand.NewSource(9))
	sources := make([]sgraph.NodeID, 64)
	for i := range sources {
		sources[i] = sgraph.NodeID(rng.Intn(g.NumNodes()))
	}
	b.Run("saturating", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := signedbfs.CountPaths(g, sources[i%len(sources)])
			if r.SaturatedAt {
				b.Fatal("unexpected saturation")
			}
		}
	})
	b.Run("bigint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signedbfs.CountPathsBig(g, sources[i%len(sources)])
		}
	})
}
