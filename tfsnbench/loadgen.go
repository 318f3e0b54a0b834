package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sgraph"
)

// maxConns bounds the load generator: this many HTTP connections, each
// driven by one sending goroutine.
const maxConns = 2

// idHeader carries a request's id in traced runs, so the handler timer
// can pair its server-side time with the client's round trip.
const idHeader = "X-Bench-Id"

// Phases of a serving run.
const (
	phaseWarm uint8 = iota
	phaseOpen
	phaseClosed
)

// sample is the client's record of one request.
type sample struct {
	id     int64
	phase  uint8
	kind   reqKind
	entry  int32
	status int // HTTP status; 0 on a transport error
	lat    time.Duration
	rtt    time.Duration
	late   time.Duration
	hash   uint64 // FNV-1a of the response body
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// target renders generated requests into URLs.
type target struct {
	base  string
	pool  []poolEntry
	flips []sgraph.Edge
}

func (t *target) url(r request) (method, url string) {
	switch r.kind {
	case kindTopK:
		return http.MethodGet, t.base + "/formtopk?" + t.pool[r.entry].query + "&k=" + strconv.Itoa(topK)
	case kindTopKDiverse:
		return http.MethodGet, t.base + "/formtopk?" + t.pool[r.entry].query + "&k=" + strconv.Itoa(topK) +
			"&lambda=" + strconv.FormatFloat(diverseLambda, 'g', -1, 64)
	case kindMutate:
		e := t.flips[r.entry]
		return http.MethodPost, fmt.Sprintf("%s/mutate?mut=flip:%d:%d", t.base, e.U, e.V)
	default:
		return http.MethodGet, t.base + "/form?" + t.pool[r.entry].query
	}
}

// bodyKey identifies one distinct solve request (endpoint and entry).
type bodyKey struct {
	kind  reqKind
	entry int32
}

// sender is one of the generator's sending goroutines: its own
// connection slot, read buffer and records.
type sender struct {
	hc     *http.Client
	t      *target
	traced bool
	buf    bytes.Buffer

	// samples holds the open-loop requests and every flip.
	samples []sample
	closed  closedCounts
	// first keeps the first body seen per distinct solve request, and
	// firstHash its hash; mutateBodies every /mutate answer.
	first        map[bodyKey][]byte
	firstHash    map[bodyKey]uint64
	mutateBodies [][]byte
}

// closedCounts tallies closed-loop solves, which are counted rather
// than kept: their number follows the system's speed, and keeping them
// would make the generator's memory follow it too.
type closedCounts struct {
	sent, failed, mismatched int
}

// loadgen owns the HTTP client and the senders.
type loadgen struct {
	tr       *http.Transport
	senders  []*sender
	nextID   atomic.Int64
	mutating bool // answers may change between identical requests
}

func newLoadgen(t *target, traced bool) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	lg := &loadgen{tr: tr, mutating: len(t.flips) > 0}
	for i := 0; i < maxConns; i++ {
		lg.senders = append(lg.senders, &sender{hc: hc, t: t, traced: traced,
			first: map[bodyKey][]byte{}, firstHash: map[bodyKey]uint64{}})
	}
	return lg
}

// record keeps smp: open-loop requests and flips as samples,
// closed-loop solves as counts, each body checked against the first
// answer to the same request unless the engine mutates.
func (lg *loadgen) record(s *sender, smp sample) {
	switch {
	case smp.phase == phaseWarm:
	case smp.phase == phaseOpen || smp.kind == kindMutate:
		s.samples = append(s.samples, smp)
	default:
		c := &s.closed
		c.sent++
		if !smp.ok() {
			c.failed++
			return
		}
		if !lg.mutating && smp.hash != s.firstHash[bodyKey{smp.kind, smp.entry}] {
			c.mismatched++
		}
	}
}

func (lg *loadgen) close() { lg.tr.CloseIdleConnections() }

// do sends r, due at sched, and records it.
func (s *sender) do(r request, id int64, sched time.Time, phase uint8) sample {
	method, url := s.t.url(r)
	smp := sample{id: id, phase: phase, kind: r.kind, entry: r.entry}
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return smp
	}
	if s.traced {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err == nil {
		s.buf.Reset()
		_, err = s.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			smp.status = resp.StatusCode
		}
	}
	end := time.Now()
	smp.lat, smp.rtt, smp.late = end.Sub(sched), end.Sub(start), start.Sub(sched)
	if smp.status == 0 || phase == phaseWarm {
		return smp
	}
	smp.hash = fnvHash(s.buf.Bytes())
	if r.kind == kindMutate {
		s.mutateBodies = append(s.mutateBodies, bytes.Clone(s.buf.Bytes()))
	} else if k := (bodyKey{r.kind, r.entry}); s.first[k] == nil {
		s.first[k] = bytes.Clone(s.buf.Bytes())
		s.firstHash[k] = smp.hash
	}
	return smp
}

func fnvHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runOpen sends sched on its timetable from now on: each sender takes
// the next request, sleeps until it is due and sends it. A request is
// timed from its scheduled send, so a stall charges every request that
// had to wait behind it.
func (lg *loadgen) runOpen(sched []request) {
	start := time.Now()
	base := lg.nextID.Add(int64(len(sched))) - int64(len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range lg.senders {
		// Room for the whole schedule, so appends never copy mid-phase.
		s.samples = slices.Grow(s.samples, len(sched))
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				r := sched[i]
				due := start.Add(r.at)
				sleepUntil(due)
				lg.record(s, s.do(r, base+i, due, phaseOpen))
			}
		}(s)
	}
	wg.Wait()
}

// runClosed keeps every sender busy back to back for d, drawing solve
// requests from m at stream offset off, and returns how long it ran
// until the last request in flight at d had completed.
func (lg *loadgen) runClosed(m *mix, off uint64, d time.Duration, phase uint8) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range lg.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				lg.record(s, s.do(m.at(off+uint64(next.Add(1)-1)), lg.nextID.Add(1)-1, now, phase))
			}
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

// merged returns every sender's samples in send order.
func (lg *loadgen) merged() []sample {
	var out []sample
	for _, s := range lg.senders {
		out = append(out, s.samples...)
	}
	slices.SortFunc(out, func(a, b sample) int { return cmp.Compare(a.id, b.id) })
	return out
}

// closedTotals sums the senders' closed-loop counts.
func (lg *loadgen) closedTotals() closedCounts {
	var c closedCounts
	for _, s := range lg.senders {
		c.sent += s.closed.sent
		c.failed += s.closed.failed
		c.mismatched += s.closed.mismatched
	}
	return c
}

// firstBodies merges the senders' first-seen bodies; when both saw a
// key, the two bodies must agree (mismatched reports whether not).
func (lg *loadgen) firstBodies() (map[bodyKey][]byte, int) {
	out := map[bodyKey][]byte{}
	mismatched := 0
	for _, s := range lg.senders {
		for k, b := range s.first {
			if prev, ok := out[k]; ok {
				if !bytes.Equal(prev, b) {
					mismatched++
				}
				continue
			}
			out[k] = b
		}
	}
	return out, mismatched
}

// getJSON fetches url over the generator's own connections and
// decodes the JSON body into v.
func (lg *loadgen) getJSON(url string, v any) error {
	resp, err := lg.senders[0].hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
