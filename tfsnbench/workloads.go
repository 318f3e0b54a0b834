package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// The generated load. Both serving workloads draw from the same pool
// and mix; batch-unique solves never-repeated tasks in chunks.
const (
	taskSize  = 5    // skills per generated task
	poolSize  = 4096 // distinct tasks in the serving popularity pool
	zipfS     = 1.1  // popularity skew over the pool
	topKShare = 0.1  // share of serving requests sent to /formtopk

	batchChunk = 128  // tasks per FormBatch call
	refEvery   = 8    // every refEvery-th chunk is re-solved at Workers=1
	qualityN   = 4096 // solved_frac and mean_cost cover the first qualityN tasks
)

// workload is one named traffic shape. Serving workloads start the
// daemon configuration from tfsndArgs exactly as cmd/tfsnd would parse
// it; the batch workload drives team.Solver.FormBatch directly, the
// call cmd/tfsn -batch makes. The dataset keeps tfsnd's -seed default,
// so the graph and engine are the same for every workload seed; the
// workload seed drives only the generated load (task pool, popularity
// draws, request mix, flipped edges).
type workload struct {
	name string
	why  string

	// tfsndArgs are the tfsnd flags of the configuration (batch: the
	// dataset, relation, engine and plan-cache flags only).
	tfsndArgs []string
	batch     bool // FormBatch in process instead of serving

	// Serving workloads.
	openRate  float64       // open-loop requests per second
	openShare float64       // share of the measured time spent in the open loop
	flipEvery time.Duration // 0: no mutations
	flipStart time.Duration
}

var workloads = []*workload{
	{
		name:      "serve-read",
		why:       "Served /form and /formtopk over loopback HTTP on the matrix engine with a warm plan cache: serve parse, JSON and transport dominate; no spill, no mutation.",
		tfsndArgs: []string{"-dataset", "epinions", "-scale", "0.1", "-relation", "SPO", "-engine", "matrix"},
		// An eighth of the closed-loop rate on a quiet 2-core host and a
		// quarter of it when other guests load the host: queueing behind
		// a slowed server stays rare, so the medians track service time.
		openRate:  2500,
		openShare: 0.6,
	},
	{
		name:      "batch-unique",
		why:       "In-process FormBatch over distinct tasks with no plan cache (tfsn -batch): plan compile and grow/pick/pricing do all the work; no HTTP, no cache hit.",
		tfsndArgs: []string{"-dataset", "epinions", "-scale", "0.2", "-relation", "SPM", "-engine", "matrix", "-plan-cache", "0"},
		batch:     true,
	},
	{
		name: "serve-mutate",
		why:  "Served /form beside POST /mutate edge flips on the spilling sharded engine: signedbfs row fills and the compat rebuild and spill path dominate.",
		tfsndArgs: []string{"-dataset", "epinions", "-scale", "0.1", "-relation", "SPO", "-engine", "sharded",
			"-shard-rows", "64", "-max-resident-shards", "8", "-mmap-spill", "-mutations"},
		// A flip stalls reads for 0.6-0.9 s while the touched shards
		// rebuild, then costs spill write-backs for seconds; one every
		// 5 s keeps most of the loop out of that transient, and 70 req/s
		// still gives enough /form requests for a p99.
		openRate:  70,
		openShare: 0.8,
		flipEvery: 5 * time.Second,
		flipStart: 2500 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ---------------------------------------------------------------------------
// Seeded generation. Every draw is a pure function of (seed, stream,
// index), so a request's content does not depend on how many requests
// a run managed to send before it.

// splitmix64 is the SplitMix64 finaliser: a bijective mix of x.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform float in [0,1) for (seed, stream, i).
func draw(seed int64, stream, i uint64) float64 {
	x := splitmix64(splitmix64(uint64(seed)^stream*0x632be59bd9b4e019) ^ i)
	return float64(x>>11) / (1 << 53)
}

// Draw streams: each independent choice has its own.
const (
	streamKind uint64 = iota + 1
	streamRank
	streamLambda
	streamFlip
	streamPool
	streamBatch
	streamSample
)

// zipfCDF returns the cumulative popularity of ranks 0..n-1 under
// weight (rank+1)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return cdf
}

// rank inverts the CDF: the smallest rank whose cumulative share
// exceeds u.
func rank(cdf []float64, u float64) int {
	i := sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	if i == len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// reqKind names the endpoint a generated request calls.
type reqKind uint8

const (
	kindForm reqKind = iota
	kindTopK
	kindTopKDiverse
	kindMutate
)

func (k reqKind) String() string {
	return [...]string{"form", "topk", "topk-diverse", "mutate"}[k]
}

// topK and diverseLambda are the /formtopk parameters.
const (
	topK          = 5
	diverseLambda = 0.5
)

// request is one generated call. For solve kinds entry indexes the
// task pool; for kindMutate it indexes the flip list.
type request struct {
	at    time.Duration // scheduled send, from the phase start (open loop)
	kind  reqKind
	entry int32
}

// mix draws the solve requests of a serving workload.
type mix struct {
	seed int64
	cdf  []float64
	topK float64
}

func newMix(seed int64) *mix {
	return &mix{seed: seed, cdf: zipfCDF(poolSize, zipfS), topK: topKShare}
}

// at returns solve request i of the stream: its endpoint and pool
// entry. Half the /formtopk requests are diverse (λ > 0).
func (m *mix) at(i uint64) request {
	r := request{kind: kindForm, entry: int32(rank(m.cdf, draw(m.seed, streamRank, i)))}
	if draw(m.seed, streamKind, i) < m.topK {
		r.kind = kindTopK
		if draw(m.seed, streamLambda, i) < 0.5 {
			r.kind = kindTopKDiverse
		}
	}
	return r
}

// openSchedule lays out the open-loop phase: solve requests at a fixed
// rate (evenly spaced, starting at 0) and, when flips is non-empty,
// the flips due within the phase merged in by time; flip i toggles
// edge flipBase+i.
func openSchedule(m *mix, rate float64, d time.Duration, flips []time.Duration, flipBase int) []request {
	n := int(rate * d.Seconds())
	out := make([]request, 0, n+len(flips))
	flip := func(i int) request {
		return request{at: flips[i], kind: kindMutate, entry: int32(flipBase + i)}
	}
	fi := 0
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		for ; fi < len(flips) && flips[fi] <= at; fi++ {
			out = append(out, flip(fi))
		}
		r := m.at(uint64(i))
		r.at = at
		out = append(out, r)
	}
	for ; fi < len(flips) && flips[fi] < d; fi++ {
		out = append(out, flip(fi))
	}
	return out
}

// flipTimes is the mutation schedule of an open loop of length d: one
// flip every w.flipEvery from w.flipStart on, the last at least half
// an interval before the loop ends, so the closed loop that follows
// measures an engine that has settled after its last rebuild.
func flipTimes(w *workload, d time.Duration) []time.Duration {
	if w.flipEvery <= 0 {
		return nil
	}
	var out []time.Duration
	for t := w.flipStart; t < d-w.flipEvery/2; t += w.flipEvery {
		out = append(out, t)
	}
	return out
}

// flipEdges picks the edge each flip toggles: uniform over the graph's
// existing edges.
func flipEdges(seed int64, g *sgraph.Graph, n int) []sgraph.Edge {
	edges := g.Edges()
	out := make([]sgraph.Edge, n)
	for i := range out {
		out[i] = edges[int(draw(seed, streamFlip, uint64(i))*float64(len(edges)))]
	}
	return out
}

// poolEntry is one distinct task of the popularity pool, with the
// constraints some entries carry and its pre-rendered query.
type poolEntry struct {
	task  skills.Task
	cons  team.Constraints
	query string // task=...[&include=...][&exclude=...]
}

// makePool draws n distinct taskSize-skill tasks. About one entry in
// ten must include a holder of one of its skills and one in ten
// excludes two holders, so the constrained plan variants ride the same
// cache as plain tasks.
func makePool(seed int64, a *skills.Assignment, n int) ([]poolEntry, error) {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ streamPool))))
	seen := make(map[string]bool, n)
	pool := make([]poolEntry, 0, n)
	for len(pool) < n {
		t, err := skills.RandomTask(rng, a, taskSize)
		if err != nil {
			return nil, err
		}
		e := poolEntry{task: t}
		holder := func() sgraph.NodeID {
			hs := a.Holders(t[rng.Intn(len(t))])
			return hs[rng.Intn(len(hs))]
		}
		switch c := rng.Float64(); {
		case c < 0.1:
			e.cons.MustInclude = []sgraph.NodeID{holder()}
		case c < 0.2:
			x, y := holder(), holder()
			if x == y {
				e.cons.MustExclude = []sgraph.NodeID{x}
			} else {
				e.cons.MustExclude = []sgraph.NodeID{x, y}
			}
		}
		e.query = renderQuery(a.Universe(), e)
		if seen[e.query] {
			continue
		}
		seen[e.query] = true
		pool = append(pool, e)
	}
	return pool, nil
}

func renderQuery(u *skills.Universe, e poolEntry) string {
	var b strings.Builder
	b.WriteString("task=")
	for i, s := range e.task {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(u.Name(s))
	}
	writeIDs := func(key string, ids []sgraph.NodeID) {
		if len(ids) == 0 {
			return
		}
		b.WriteString("&" + key + "=")
		for i, id := range ids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(id)))
		}
	}
	writeIDs("include", e.cons.MustInclude)
	writeIDs("exclude", e.cons.MustExclude)
	return b.String()
}

// uniqueTasks yields distinct taskSize-skill tasks in a seeded order
// without remembering the tasks it gave: task i is a pure function of
// (seed, i). A seeded bijection on [0, C(m, taskSize)) sends i to a
// rank, the combinatorial number system turns the rank into a
// taskSize-subset of [0, m), and a seeded permutation of the m skills
// with holders names the skills at those positions. Distinct indices
// give distinct ranks, hence distinct tasks, and the generator's memory
// does not grow with the number of tasks solved.
type uniqueTasks struct {
	key    uint64
	skills []skills.SkillID // the skills with holders, in seeded order
	binom  [][]uint64       // binom[j][n] = C(n, j) for j ≤ taskSize, n ≤ m
	total  uint64           // C(m, taskSize): how many tasks exist
	half   uint             // the bijection permutes 2·half-bit values
	i      uint64           // index of the next task
}

func newUniqueTasks(seed int64, a *skills.Assignment) (*uniqueTasks, error) {
	key := splitmix64(uint64(seed) ^ streamBatch)
	avail := a.SkillsWithHolders()
	rng := rand.New(rand.NewSource(int64(key)))
	rng.Shuffle(len(avail), func(i, j int) { avail[i], avail[j] = avail[j], avail[i] })
	m := len(avail)
	binom := make([][]uint64, taskSize+1)
	for j := range binom {
		binom[j] = make([]uint64, m+1)
		for n := range binom[j] {
			switch {
			case j == 0:
				binom[j][n] = 1
			case n > 0:
				binom[j][n] = binom[j-1][n-1] + binom[j][n-1]
			}
			if binom[j][n] > 1<<62 {
				return nil, fmt.Errorf("%d skills have holders: too many %d-skill tasks to rank", m, taskSize)
			}
		}
	}
	u := &uniqueTasks{key: key, skills: avail, binom: binom, total: binom[taskSize][m], half: 1}
	if u.total == 0 {
		return nil, fmt.Errorf("only %d skills have holders, fewer than %d", m, taskSize)
	}
	for uint64(1)<<(2*u.half) < u.total {
		u.half++
	}
	return u, nil
}

// permute is a bijection on [0, total): a four-round Feistel network
// keyed by the seed permutes [0, 4^half), and a value it sends to or
// beyond total walks on along its cycle until it falls back inside.
func (u *uniqueTasks) permute(x uint64) uint64 {
	mask := uint64(1)<<u.half - 1
	for {
		l, r := x>>u.half, x&mask
		for round := uint64(1); round <= 4; round++ {
			l, r = r, l^splitmix64(u.key^round<<56^r)&mask
		}
		if x = l<<u.half | r; x < u.total {
			return x
		}
	}
}

// at returns task i; the order repeats only after all total tasks.
func (u *uniqueTasks) at(i uint64) skills.Task {
	r := u.permute(i % u.total)
	ids := make([]skills.SkillID, taskSize)
	n := len(u.skills)
	for j := taskSize; j >= 1; j-- {
		// The largest c < n with C(c, j) ≤ r.
		c := sort.Search(n, func(c int) bool { return u.binom[j][c] > r }) - 1
		ids[j-1] = u.skills[c]
		r -= u.binom[j][c]
		n = c
	}
	return skills.NewTask(ids...)
}

// next returns the next n tasks.
func (u *uniqueTasks) next(n int) []skills.Task {
	out := make([]skills.Task, n)
	for k := range out {
		out[k] = u.at(u.i)
		u.i++
	}
	return out
}
