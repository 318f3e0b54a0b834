package container

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(w, i) for every i in [0, count), spread over the
// given number of workers clamped to [1, count]; w, in [0, workers),
// names the worker running the item, so fn can index per-worker state
// by it. Workers take their indices from a shared counter, so items
// start in index order, and one worker runs them in index order.
//
// The first error stops every worker at its next item, and ParallelFor
// returns, once every started item has ended, the error of the lowest
// failing index. Every item below a failing one was handed out before
// it and so runs to its end, which makes the reported error
// independent of scheduling.
func ParallelFor(count, workers int, fn func(w, i int) error) error {
	workers = max(1, min(workers, count))
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errIdx   = count
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
