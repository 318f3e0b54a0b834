package container

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForEmpty: a count of 0 never calls fn, at any worker
// count.
func TestParallelForEmpty(t *testing.T) {
	for _, workers := range []int{-2, 0, 1, 4} {
		err := ParallelFor(0, workers, func(w, i int) error {
			t.Errorf("workers=%d: fn(%d, %d) called on an empty range", workers, w, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestParallelForEveryIndexOnce: any worker count — 4, more than the
// count (clamped down to it), or 1, asked for or clamped up from
// workers ≤ 0 — runs every index exactly once, each on a worker in
// range, and each worker runs its items in index order, so one worker
// runs them all in order. hits is written without atomics, so under
// -race an index run by two workers is also a reported race.
func TestParallelForEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ count, workers int }{{1000, 4}, {5, 64}, {10, 1}, {10, 0}, {10, -3}, {1, 8}} {
		workers := max(1, min(tc.workers, tc.count))
		hits := make([]int, tc.count)
		last := make([]int, workers)
		for w := range last {
			last[w] = -1
		}
		err := ParallelFor(tc.count, tc.workers, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("count=%d workers=%d: item %d ran on worker %d, want one in [0, %d)", tc.count, tc.workers, i, w, workers)
				return nil
			}
			if i <= last[w] {
				t.Errorf("count=%d workers=%d: worker %d ran item %d after item %d", tc.count, tc.workers, w, i, last[w])
			}
			last[w] = i
			hits[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("count=%d workers=%d: index %d ran %d times", tc.count, tc.workers, i, h)
			}
		}
	}
}

// TestParallelForLowestError: with items 3, 7 and 11 failing, every
// run reports item 3's error, although item 3 fails only after item 7
// has (the other workers reach item 7 while item 3's worker waits, as
// nothing below it stops them); a worker whose item failed starts no
// further item, and the stop ends the range long before its last
// item. At one worker nothing after item 3 starts at all.
func TestParallelForLowestError(t *testing.T) {
	const count = 1 << 12
	errs := map[int]error{}
	for _, i := range []int{3, 7, 11} {
		errs[i] = fmt.Errorf("item %d failed", i)
	}
	for run := 0; run < 100; run++ {
		var started atomic.Int64
		var stopped [4]atomic.Bool
		seventh := make(chan struct{})
		err := ParallelFor(count, 4, func(w, i int) error {
			if stopped[w].Load() {
				t.Errorf("run %d: worker %d started item %d after its own item failed", run, w, i)
			}
			started.Add(1)
			switch i {
			case 3:
				<-seventh
				time.Sleep(100 * time.Microsecond) // let item 7's error land first
			case 7:
				defer close(seventh)
			}
			if e := errs[i]; e != nil {
				stopped[w].Store(true)
				return e
			}
			return nil
		})
		if err != errs[3] {
			t.Fatalf("run %d: err = %v, want %v", run, err, errs[3])
		}
		if n := started.Load(); n >= count {
			t.Fatalf("run %d: all %d items started despite the failures", run, n)
		}
	}
	var ran []int
	err := ParallelFor(count, 1, func(_, i int) error {
		ran = append(ran, i)
		return errs[i]
	})
	if err != errs[3] || len(ran) != 4 {
		t.Fatalf("one worker: err = %v after items %v, want item 3's error after items 0..3", err, ran)
	}
}
