package compat

import (
	"fmt"
	"runtime"

	"repro/internal/container"
	"repro/internal/sgraph"
)

// Precompute fills the relation's row cache for every node, in
// parallel. Use it before all-pairs workloads (the experiment harness
// does) so that subsequent point queries never block on a search; the
// relation must have been created with CacheCap ≥ NumNodes or rows
// will evict each other.
//
// workers ≤ 0 uses GOMAXPROCS. The first row-computation error aborts
// the sweep, and the lowest failing row's error is returned.
//
// Packed relations (ShardedMatrix) are fully materialised at
// construction, so precomputing them is an immediate no-op.
func Precompute(rel Relation, workers int) error {
	switch r := rel.(type) {
	case *ShardedMatrix:
		return nil
	case *lazyRelation:
		n := r.Graph().NumNodes()
		scratches, workers := newWorkerScratches(workers, n)
		return container.ParallelFor(n, workers, func(w, i int) error {
			_, err := r.row(sgraph.NodeID(i), scratches[w])
			return err
		})
	default:
		return fmt.Errorf("compat: relation %v does not support precomputation", rel.Kind())
	}
}

// newWorkerScratches resolves the worker count (≤0 → GOMAXPROCS,
// clamped to [1, count]) and allocates one rowScratch per worker,
// returning both so callers pass the same count to
// container.ParallelFor.
func newWorkerScratches(workers, count int) ([]*rowScratch, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	scratches := make([]*rowScratch, workers)
	for i := range scratches {
		scratches[i] = newRowScratch(count)
	}
	return scratches, workers
}
