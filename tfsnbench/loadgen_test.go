package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
)

func TestScheduleDeterministicInSeed(t *testing.T) {
	flips := []time.Duration{100 * time.Millisecond, 600 * time.Millisecond}
	a := openSchedule(newMix(7), 500, time.Second, flips, 1)
	b := openSchedule(newMix(7), 500, time.Second, flips, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := openSchedule(newMix(8), 500, time.Second, flips, 1); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if len(a) != 500+len(flips) {
		t.Fatalf("%d requests, want %d", len(a), 500+len(flips))
	}
	mutations := 0
	for i, r := range a {
		if i > 0 && r.at < a[i-1].at {
			t.Fatalf("request %d at %v precedes request %d at %v", i, r.at, i-1, a[i-1].at)
		}
		if r.kind == kindMutate {
			if r.at != flips[mutations] || int(r.entry) != 1+mutations {
				t.Fatalf("flip %d: %+v", mutations, r)
			}
			mutations++
		}
	}
	if mutations != len(flips) {
		t.Fatalf("%d flips scheduled, want %d", mutations, len(flips))
	}
}

func TestZipfDrawDeterministicAndSkewed(t *testing.T) {
	m, again := newMix(3), newMix(3)
	counts := make([]int, poolSize)
	topk := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		r := m.at(i)
		if r != again.at(i) {
			t.Fatalf("draw %d differs between two mixes of one seed", i)
		}
		counts[r.entry]++
		if r.kind != kindForm {
			topk++
		}
	}
	// Rank 0 carries 1/H(4096, 1.1) ≈ 16% of the draws, rank 9 about
	// a twelfth of that.
	if share := float64(counts[0]) / n; share < 0.14 || share > 0.18 {
		t.Errorf("rank 0 drew %.3f of requests, want ≈0.16", share)
	}
	if counts[9] >= counts[0]/8 {
		t.Errorf("rank 9 drew %d, rank 0 %d: not Zipf-skewed", counts[9], counts[0])
	}
	if share := float64(topk) / n; share < 0.09 || share > 0.11 {
		t.Errorf("/formtopk share %.3f, want ≈%.2f", share, topKShare)
	}
}

func TestMutationScheduleDeterministicInSeed(t *testing.T) {
	w, _ := findWorkload("serve-mutate")
	d, err := datasets.Load("epinions", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	times := flipTimes(w, 20*time.Second)
	if len(times) == 0 {
		t.Fatal("no flips scheduled")
	}
	for i, at := range times {
		if at >= 20*time.Second-w.flipEvery/2 || (i > 0 && at-times[i-1] != w.flipEvery) {
			t.Fatalf("flip %d at %v in %v", i, at, times)
		}
	}
	a, b := flipEdges(5, d.Graph, len(times)), flipEdges(5, d.Graph, len(times))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed flipped different edges")
	}
	if reflect.DeepEqual(a, flipEdges(6, d.Graph, len(times))) {
		t.Fatal("seeds 5 and 6 flipped the same edges")
	}
	for _, e := range a {
		if !d.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("flip of %v, which is not an edge", e)
		}
	}
	p1, err := makePool(5, d.Assign, 256)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := makePool(5, d.Assign, 256)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed drew two task pools")
	}
	g1, err := newUniqueTasks(5, d.Assign)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newUniqueTasks(5, d.Assign)
	if !reflect.DeepEqual(g1.next(300), g2.next(300)) {
		t.Fatal("the same seed drew two unique task streams")
	}
}

func TestUniqueTasksNeverRepeat(t *testing.T) {
	// Seven skills make C(7, 5) = 21 tasks: the first 21 are all of them.
	a := skills.NewAssignment(skills.GenerateUniverse(7), 7)
	for u := 0; u < 7; u++ {
		a.MustAdd(sgraph.NodeID(u), skills.SkillID(u))
	}
	small, err := newUniqueTasks(1, a)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, task := range small.next(21) {
		seen[fmt.Sprint(task)] = true
	}
	if small.total != 21 || len(seen) != 21 {
		t.Fatalf("%d tasks of 7 skills, %d distinct among the first 21", small.total, len(seen))
	}

	d, err := datasets.Load("epinions", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := newUniqueTasks(3, d.Assign)
	if err != nil {
		t.Fatal(err)
	}
	seen = map[string]bool{}
	for _, task := range gen.next(20000) {
		if len(task) != taskSize {
			t.Fatalf("task %v: want %d skills", task, taskSize)
		}
		for _, s := range task {
			if d.Assign.NumHolders(s) == 0 {
				t.Fatalf("task %v: skill %d has no holder", task, s)
			}
		}
		key := fmt.Sprint(task)
		if seen[key] {
			t.Fatalf("task %v repeated", task)
		}
		seen[key] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		v, ok := percentile(ramp(c.n), c.q)
		if ok != c.ok {
			t.Errorf("p%g of %d samples: reported=%v, want %v", 100*c.q, c.n, ok, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range ramp(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("p%g of %d samples = %v with %d beyond", 100*c.q, c.n, v, beyond)
			}
		}
	}

	// Per-layer tails: too few samples beyond reports 0 and says so.
	v := values{}
	var unreported []string
	v.tail("serve.handler_us_p99", ramp(999), 0.99, &unreported)
	if v["serve.handler_us_p99"] != 0 || len(unreported) != 1 {
		t.Errorf("p99 of 999 samples: %v, notes %q", v["serve.handler_us_p99"], unreported)
	}
	v.tail("serve.handler_us_p99", ramp(1000), 0.99, &unreported)
	if v["serve.handler_us_p99"] != 990 || len(unreported) != 1 {
		t.Errorf("p99 of 1000 samples: %v, notes %q", v["serve.handler_us_p99"], unreported)
	}
	// GC pauses come bucketed: 1 s and 2 s buckets here.
	pauses := func(counts ...uint64) runtimeSnap {
		return runtimeSnap{pauses: &metrics.Float64Histogram{Counts: counts, Buckets: []float64{0, 1, 2, math.Inf(1)}}}
	}
	if d := diffRuntime(pauses(0, 0, 0), pauses(989, 10, 0)); d.pauseP99OK || d.pauseP99US != 0 || d.pauseMaxUS != 2e6 {
		t.Errorf("999 pauses: %+v", d)
	}
	if d := diffRuntime(pauses(0, 0, 0), pauses(990, 10, 0)); !d.pauseP99OK || d.pauseP99US != 1e6 || d.pauseMaxUS != 2e6 {
		t.Errorf("1000 pauses: %+v", d)
	}
}

// stallServer answers every request at once, except that the first
// request holds a lock for stall and every request waits for that
// lock: a server that freezes, then recovers.
func stallServer(stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	var once sync.Once
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			mu.Lock()
			go func() {
				time.Sleep(stall)
				mu.Unlock()
			}()
		})
		mu.Lock()
		mu.Unlock()
		w.Write([]byte(`{"found":false}`))
	}))
}

func TestLatencyFromScheduledSend(t *testing.T) {
	// run sends 1000 requests at 2000/s and returns loadgen.late_p99_ms
	// and the p99 latency.
	run := func(stall time.Duration) (lateP99, latP99 float64) {
		srv := stallServer(stall)
		defer srv.Close()
		tg := &target{base: srv.URL, pool: []poolEntry{{query: "task=a"}}}
		lg := newLoadgen(tg, false)
		defer lg.close()
		m := &mix{seed: 1, cdf: []float64{1}}
		lg.runOpen(openSchedule(m, 2000, 500*time.Millisecond, nil, 0))
		samples := lg.merged()
		var lat dist
		for _, s := range samples {
			if !s.ok() {
				t.Fatalf("status %d", s.status)
			}
			if s.lat != s.rtt+s.late {
				t.Fatalf("latency %v is not round trip %v + lateness %v", s.lat, s.rtt, s.late)
			}
			lat = append(lat, durMS(s.lat))
		}
		v := values{}
		loadgenLayer(v, samples, closedCounts{}, new([]string))
		return v["loadgen.late_p99_ms"], mustQuantile(t, lat, 0.99)
	}
	calmLate, calmLat := run(0)
	stallLate, stallLat := run(200 * time.Millisecond)
	// The stall holds both connections, so the requests due during it
	// go out late, and their latency counts the wait.
	if stallLate < 100 || stallLate < 4*calmLate {
		t.Errorf("loadgen.late_p99_ms: %.2f stalled, %.2f calm", stallLate, calmLate)
	}
	if stallLat < 100 || stallLat < 4*calmLat {
		t.Errorf("latency p99: %.2f ms stalled, %.2f ms calm", stallLat, calmLat)
	}
}

func mustQuantile(t *testing.T, d dist, q float64) float64 {
	t.Helper()
	v, ok := d.quantile(q)
	if !ok {
		t.Fatalf("%d samples: no p%g", len(d), 100*q)
	}
	return v
}
