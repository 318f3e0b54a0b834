package compat

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sgraph"
)

// Precompute fills the relation's row cache for every node, in
// parallel. Use it before all-pairs workloads (the experiment harness
// does) so that subsequent point queries never block on a search; the
// relation must have been created with CacheCap ≥ NumNodes or rows
// will evict each other.
//
// workers ≤ 0 uses GOMAXPROCS. The first row-computation error aborts
// the sweep.
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
		return parallelSweep(n, workers, func(w, i int) error {
			_, err := r.row(sgraph.NodeID(i), scratches[w])
			return err
		})
	default:
		return fmt.Errorf("compat: relation %v does not support precomputation", rel.Kind())
	}
}

// newWorkerScratches resolves the worker count (≤0 → GOMAXPROCS,
// clamped to [1, count]) and allocates one rowScratch per worker,
// returning both so callers pass the same count to parallelSweep.
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

// parallelSweep runs fn(worker, i) for every i in [0, count) across
// the given number of workers, handing out indices from a shared
// atomic counter; the first error aborts the sweep and is returned.
// It is the one worker-pool implementation behind Precompute,
// ComputeStats and the packed builds.
func parallelSweep(count, workers int, fn func(w, i int) error) error {
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	var next int64 = -1
	var firstErr error
	var errOnce sync.Once
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := atomic.AddInt64(&next, 1)
				if i >= int64(count) {
					return
				}
				if err := fn(w, int(i)); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
