package compat

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// lazyRow is one source node's row in the packed engine's format:
// bit v of words is set iff the source and v are compatible (the
// diagonal included, tail bits past n zero), and dist[v] is the
// relation distance to v, noDist32 where it is undefined. A cached row
// is immutable.
type lazyRow struct {
	words []uint64
	dist  []int32
}

// compatible reports bit v of the row's compatibility words.
func (r *lazyRow) compatible(v sgraph.NodeID) bool {
	return r.words[int(v)>>6]&(1<<uint(int(v)&63)) != 0
}

// clone returns an owned copy of a scratch-backed row.
func (r *lazyRow) clone() *lazyRow {
	return &lazyRow{words: slices.Clone(r.words), dist: slices.Clone(r.dist)}
}

// rowScratch bundles the reusable per-worker buffers of the all-pairs
// sweeps (Precompute, ComputeStats, the packed builds): the BFS scratch
// plus the search outputs and the lazy row a worker writes between
// sources, and the multi-source sweep the packed builds run (allocated
// on first use).
type rowScratch struct {
	bfs  *signedbfs.Scratch
	res  signedbfs.Result
	dist []int32
	row  lazyRow

	sweep *signedbfs.MultiSweep

	// colBits and colDist are the packed builds' column buffers (see
	// fillSweepBlock): per node v of the graph, the block's sources
	// whose row gains v, and their uint8 distances to v, one byte a
	// lane. Between blocks colBits is all zeros and colDist all noDist8.
	colBits []uint64
	colDist []uint8
}

func newRowScratch(n int) *rowScratch {
	return &rowScratch{bfs: signedbfs.NewScratch(n)}
}

// lazyRelation is the lazy engine: every kind answers point queries
// from per-source rows, computed on first use by the kind's reference
// search and held in a bounded cache. When the cache is full it evicts
// an arbitrary entry (map iteration order), which is adequate for the
// access patterns here: the greedy team formation loop works from a
// small, slowly changing set of sources.
//
// SBPH queries run from the smaller endpoint. The graph-defined
// relations are symmetric per source row (an undirected path reverses
// freely), but the SBPH heuristic is not: the prefix property
// constrains prefixes, and the reverse of a prefix-property path need
// not have it. Canonicalising the query direction restores the
// symmetry the Comp relation requires, at the price of SBPH being
// defined as "the heuristic search from min(u,v) reaches max(u,v)".
type lazyRelation struct {
	dyn   *sgraph.Dynamic
	kind  Kind
	beam  int
	exact balance.ExactOptions
	// pin is the epoch pin: snapshots hold its read side, Mutate its
	// write side.
	pin      sync.RWMutex
	mutCount atomic.Int64

	mu   sync.Mutex
	rows map[sgraph.NodeID]*lazyRow
	cap  int
	// gen is bumped by Mutate. A row computed under an older generation
	// is returned to its caller but never inserted, so the cache cannot
	// be repopulated with stale rows.
	gen uint64
	// scratch pools the rowScratch a point-query miss computes into.
	scratch sync.Pool
}

func (r *lazyRelation) Kind() Kind { return r.kind }

// Graph returns the current graph snapshot. A row computation captures
// it once, so each row is internally consistent with one epoch even if
// an (unpinned) mutation lands mid-computation.
func (r *lazyRelation) Graph() *sgraph.Graph { return r.dyn.Graph() }

// Epoch returns the current graph epoch.
func (r *lazyRelation) Epoch() uint64 { return r.dyn.Epoch() }

// canonical reports whether queries run from the smaller endpoint:
// true exactly for SBPH, whose rows are directed.
func (r *lazyRelation) canonical() bool { return r.kind == SBPH }

// Mutate applies m, drops every cached row and publishes the new
// epoch. Subsequent queries recompute rows on demand from the new
// graph (the lazy engine has no precomputed state to invalidate
// shard-wise, so DirtyShards is 0).
func (r *lazyRelation) Mutate(m sgraph.Mutation) (MutationResult, error) {
	r.pin.Lock()
	defer r.pin.Unlock()
	_, epoch, err := r.dyn.Apply(m)
	if err != nil {
		return MutationResult{Epoch: r.dyn.Epoch()}, err
	}
	r.mu.Lock()
	r.gen++
	clear(r.rows)
	r.mu.Unlock()
	r.mutCount.Add(1)
	return MutationResult{Epoch: epoch}, nil
}

// MutationStats reports the engine's mutation counters.
func (r *lazyRelation) MutationStats() MutationStats {
	return MutationStats{Epoch: r.dyn.Epoch(), Mutations: r.mutCount.Load()}
}

// AcquireSnapshot pins the current epoch until Release.
func (r *lazyRelation) AcquireSnapshot() Snapshot {
	r.pin.RLock()
	return Snapshot{pin: &r.pin, epoch: r.dyn.Epoch()}
}

// Close is a no-op: the lazy engine holds only memory.
func (r *lazyRelation) Close() error { return nil }

func (r *lazyRelation) Compatible(u, v sgraph.NodeID) (bool, error) {
	if u == v {
		return true, nil // reflexivity
	}
	if r.canonical() && u > v {
		u, v = v, u
	}
	row, err := r.row(u, nil)
	if err != nil {
		return false, err
	}
	return row.compatible(v), nil
}

func (r *lazyRelation) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	if u == v {
		return 0, true, nil
	}
	if r.canonical() && u > v {
		u, v = v, u
	}
	row, err := r.row(u, nil)
	if err != nil {
		return 0, false, err
	}
	d := row.dist[v]
	return d, d != noDist32, nil
}

// cached returns u's cached row (nil if absent) and the cache
// generation.
func (r *lazyRelation) cached(u sgraph.NodeID) (*lazyRow, uint64) {
	r.mu.Lock()
	row, gen := r.rows[u], r.gen
	r.mu.Unlock()
	return row, gen
}

// row returns u's row from the cache, or computes it into s (a pooled
// scratch when s is nil) and caches an owned clone. The computation
// runs outside the lock: rows can be expensive and concurrent callers
// should not serialise on one search. A racing duplicate computation
// is harmless (identical immutable rows).
func (r *lazyRelation) row(u sgraph.NodeID, s *rowScratch) (*lazyRow, error) {
	row, gen := r.cached(u)
	if row != nil {
		return row, nil
	}
	if s == nil {
		s = r.scratch.Get().(*rowScratch)
		defer r.scratch.Put(s)
	}
	if err := r.computeRow(u, s); err != nil {
		return nil, err
	}
	row = s.row.clone()
	r.mu.Lock()
	if r.gen == gen {
		if len(r.rows) >= r.cap {
			for k := range r.rows {
				delete(r.rows, k)
				break
			}
		}
		r.rows[u] = row
	}
	r.mu.Unlock()
	return row, nil
}

// computeRow writes u's row into s.row, valid until s's next use, from
// the kind's reference search: a plain BFS plus u's neighbour signs
// for DPE and NNE, Algorithm 1's path counts for SPA, SPM and SPO, and
// the balanced-path searches for SBPH and SBP (balanceRow, which the
// packed fill shares). The distances are the search's own output:
// signedbfs.Unreachable and balance.NoPath are both noDist32. These
// rows never come from the multi-source sweep, so they stay the
// independent oracle of the packed sweep fills.
func (r *lazyRelation) computeRow(u sgraph.NodeID, s *rowScratch) error {
	g := r.dyn.Graph()
	n := g.NumNodes()
	stride := (n + 63) / 64
	words := slices.Grow(s.row.words[:0], stride)[:stride]
	clear(words)
	var dist []int32
	switch r.kind {
	case DPE, NNE:
		s.dist = signedbfs.DistancesInto(g, u, s.dist, s.bfs)
		dist = s.dist
		edgeWords(g, r.kind, u, words)
	case SPA, SPM, SPO:
		res := signedbfs.CountPathsInto(g, u, &s.res, s.bfs)
		dist = res.Dist
		for i, d := range dist {
			v := sgraph.NodeID(i)
			if d == signedbfs.Unreachable {
				continue
			}
			var ok bool
			switch r.kind {
			case SPA:
				ok = res.AllPositive(v)
			case SPM:
				ok = res.MajorityPositive(v)
			default:
				ok = res.HasPositive(v)
			}
			if ok {
				setWordBit(words, v)
			}
		}
	default: // SBPH, SBP: compatible iff a balanced positive path exists
		var err error
		if dist, err = balanceRow(g, r.kind, r.beam, r.exact, u, words); err != nil {
			return err
		}
	}
	setWordBit(words, u)
	s.row = lazyRow{words: words, dist: dist}
	return nil
}

// The row sentinels agree: each compiles to 0 iff the constants match.
const (
	_ uint32 = uint32(noDist32 - signedbfs.Unreachable)
	_ uint32 = uint32(signedbfs.Unreachable - noDist32)
	_ uint32 = uint32(noDist32 - balance.NoPath)
	_ uint32 = uint32(balance.NoPath - noDist32)
)

var _ MutableRelation = (*lazyRelation)(nil)
