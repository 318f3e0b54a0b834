package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported; with fewer, a handful of outliers would set it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// sorted samples and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minBeyond
}

// dist collects samples of one quantity.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile is percentile over an unsorted dist.
func (d dist) quantile(q float64) (float64, bool) { return percentile(d.sorted(), q) }

// median is the 0.5 quantile regardless of the tail rule: it is the
// central value, not a tail, so any sample count reports it.
func (d dist) median() float64 {
	s := d.sorted()
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssSampler polls the resident set size every 20 ms and keeps the
// peak, so rss_peak_mb covers the measured load and not the set-up
// instances that came and went before it.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.observe()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	b := rssBytes()
	s.mu.Lock()
	if b > s.peak {
		s.peak = b
	}
	s.mu.Unlock()
}

// stopMB stops the sampler and returns the peak in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	s.wg.Wait()
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// rssBytes reads the resident set size from /proc/self/statm, falling
// back to the runtime's mapped total where that file does not exist.
func rssBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		f := bytes.Fields(b)
		if len(f) > 1 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// hostTicks reads the host-wide CPU time from /proc/stat: the ticks
// stolen by the hypervisor and the total. Both are 0 where the file
// does not exist.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(string(s), 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of host CPU time stolen by other
// guests over an interval: on a shared host, the cause of run-to-run
// swings the program did not make.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := hostTicks()
	return stealMeter{s, t}
}

// pct returns the stolen share since start, in percent.
func (m stealMeter) pct() float64 {
	s, t := hostTicks()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// runtimeSnap is a reading of the Go runtime counters the go.* layer
// metrics difference.
type runtimeSnap struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[2].Value.Float64Histogram()
	}
	return r
}

// runtimeDelta is what the runtime did between two snaps.
type runtimeDelta struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     int64   // GC stop-the-world pauses
	pauseP99US float64 // p99 pause; 0 unless pauseP99OK
	pauseP99OK bool    // at least minBeyond pauses lie beyond the p99
	pauseMaxUS float64 // the longest pause
}

func diffRuntime(a, b runtimeSnap) runtimeDelta {
	d := runtimeDelta{gcCycles: b.gcCycles - a.gcCycles, allocBytes: b.allocBytes - a.allocBytes}
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return d
	}
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		d.pauses += int64(counts[i])
	}
	if d.pauses == 0 {
		return d
	}
	// The pause of nearest rank idx, read at its bucket's upper edge
	// (the lower edge when the upper is unbounded).
	at := func(idx int64) float64 {
		var cum int64
		for i, c := range counts {
			if cum += int64(c); cum > idx {
				edge := b.pauses.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.pauses.Buckets[i]
				}
				return edge * 1e6
			}
		}
		return 0
	}
	d.pauseMaxUS = at(d.pauses - 1)
	if idx := int64(math.Ceil(0.99*float64(d.pauses))) - 1; d.pauses-1-idx >= minBeyond {
		d.pauseP99US, d.pauseP99OK = at(idx), true
	}
	return d
}
