package compat

import (
	"sync"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
)

// row is one source node's view of a relation: compatibility and
// distance to every other node. Rows are immutable once computed.
type row interface {
	compatible(v sgraph.NodeID) bool
	distance(v sgraph.NodeID) (int32, bool)
}

// rowCache is a bounded map from source node to its row. When full it
// evicts an arbitrary entry (map iteration order), which is adequate
// for the access patterns here: the greedy team formation loop works
// from a small, slowly changing set of sources.
type rowCache struct {
	mu   sync.Mutex
	rows map[sgraph.NodeID]row
	cap  int
	// gen is bumped by invalidate (graph mutation). A row computed
	// under an older generation is returned to its caller but never
	// inserted, so the cache cannot be repopulated with stale rows.
	gen     uint64
	compute func(u sgraph.NodeID) (row, error)
	// computeScratch, when set, computes a persistent row using the
	// caller-owned scratch for transient BFS state (queue, epoch
	// stamps). Precompute's workers use it to avoid per-row transient
	// allocations.
	computeScratch func(u sgraph.NodeID, s *rowScratch) (row, error)
}

func newRowCache(cap int, compute func(u sgraph.NodeID) (row, error)) *rowCache {
	return &rowCache{
		rows:    make(map[sgraph.NodeID]row, cap),
		cap:     cap,
		compute: compute,
	}
}

func (c *rowCache) get(u sgraph.NodeID) (row, error) { return c.getWith(u, nil) }

// getWith is get with an optional per-worker scratch, used when the
// relation supports scratch-assisted row computation.
func (c *rowCache) getWith(u sgraph.NodeID, s *rowScratch) (row, error) {
	c.mu.Lock()
	if r, ok := c.rows[u]; ok {
		c.mu.Unlock()
		return r, nil
	}
	gen := c.gen
	c.mu.Unlock()
	// Compute outside the lock: rows can be expensive and concurrent
	// callers should not serialise on one BFS. A racing duplicate
	// computation is harmless (identical immutable rows).
	var r row
	var err error
	if s != nil && c.computeScratch != nil {
		r, err = c.computeScratch(u, s)
	} else {
		r, err = c.compute(u)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.gen == gen {
		if len(c.rows) >= c.cap {
			for k := range c.rows {
				delete(c.rows, k)
				break
			}
		}
		c.rows[u] = r
	}
	c.mu.Unlock()
	return r, nil
}

// invalidate drops every cached row and bumps the generation so
// in-flight computations against the old graph are not inserted.
func (c *rowCache) invalidate() {
	c.mu.Lock()
	c.gen++
	clear(c.rows)
	c.mu.Unlock()
}

// rowScratch bundles the reusable per-worker buffers of the all-pairs
// sweeps (Precompute, ComputeStats, the packed builds): the BFS scratch
// plus result/row storage that streaming consumers reuse between
// sources, and the multi-source sweep with its block of sources that
// the packed builds run (allocated on first use).
type rowScratch struct {
	bfs     *signedbfs.Scratch
	res     signedbfs.Result
	dist    []int32
	edgeRow edgeRow
	spRow   spRow

	sweep *signedbfs.MultiSweep
	srcs  []sgraph.NodeID

	// reach, when non-nil, makes the relation fillers OR each source
	// row's plain-BFS reachable set into it (a node bitset of the given
	// word count) — the conservative search footprint the packed
	// engine's mutation invalidation keys on. Nil everywhere else, so
	// the lazy sweeps and single-shard builds pay nothing.
	reach []uint64
}

func newRowScratch(n int) *rowScratch {
	return &rowScratch{bfs: signedbfs.NewScratch(n)}
}

// recordReach ORs one row's plain-BFS reachable set into the reach
// accumulator when it is armed; every relation's search only traverses
// graph edges, so this is a superset of any vertex the row's
// computation could have relaxed through.
func (s *rowScratch) recordReach(dist []int32) {
	if s.reach == nil {
		return
	}
	for v, d := range dist {
		if d != signedbfs.Unreachable {
			s.reach[v>>6] |= 1 << uint(v&63)
		}
	}
}

// resetReach arms (or rezeroes) the reach accumulator for one shard
// sweep.
func (s *rowScratch) resetReach(words int) {
	if cap(s.reach) < words {
		s.reach = make([]uint64, words)
		return
	}
	s.reach = s.reach[:words]
	clear(s.reach)
}

// baseRelation carries the pieces common to all relations.
//
// canonical forces queries to run from the smaller endpoint. The
// graph-defined relations are symmetric per source row (an undirected
// path reverses freely), but the SBPH heuristic is not: the prefix
// property constrains prefixes, and the reverse of a prefix-property
// path need not have it. Canonicalising the query direction restores
// the symmetry the Comp relation requires, at the price of SBPH being
// defined as "the heuristic search from min(u,v) reaches max(u,v)".
type baseRelation struct {
	dyn       *sgraph.Dynamic
	kind      Kind
	cache     *rowCache
	canonical bool
	mutGuard
	mutCount atomic.Int64
}

func (b *baseRelation) Kind() Kind { return b.kind }

// graph returns the current graph snapshot. Row computations capture
// it once, so each row is internally consistent with one epoch even if
// an (unpinned) mutation lands mid-computation.
func (b *baseRelation) graph() *sgraph.Graph             { return b.dyn.Graph() }
func (b *baseRelation) Graph() *sgraph.Graph             { return b.dyn.Graph() }
func (b *baseRelation) row(u sgraph.NodeID) (row, error) { return b.cache.get(u) }

// Epoch returns the current graph epoch.
func (b *baseRelation) Epoch() uint64 { return b.dyn.Epoch() }

// Mutate applies m, drops every cached row and publishes the new
// epoch. Subsequent queries recompute rows on demand from the new
// graph (the lazy engine has no precomputed state to invalidate
// shard-wise, so DirtyShards is 0).
func (b *baseRelation) Mutate(m sgraph.Mutation) (MutationResult, error) {
	b.pin.Lock()
	defer b.pin.Unlock()
	_, epoch, err := b.dyn.Apply(m)
	if err != nil {
		return MutationResult{Epoch: b.dyn.Epoch()}, err
	}
	b.cache.invalidate()
	b.mutCount.Add(1)
	return MutationResult{Epoch: epoch}, nil
}

// MutationStats reports the engine's mutation counters.
func (b *baseRelation) MutationStats() MutationStats {
	return MutationStats{Epoch: b.dyn.Epoch(), Mutations: b.mutCount.Load()}
}

// AcquireSnapshot pins the current epoch until Release.
func (b *baseRelation) AcquireSnapshot() Snapshot {
	b.pin.RLock()
	return Snapshot{rel: b, epoch: b.dyn.Epoch()}
}

// rowWith is row with a per-worker scratch for the transient BFS state;
// relations without scratch support fall back to the plain computation.
func (b *baseRelation) rowWith(u sgraph.NodeID, s *rowScratch) (row, error) {
	return b.cache.getWith(u, s)
}

// supportsRowScratch reports whether rowWith actually uses a scratch,
// so Precompute only allocates per-worker scratches that will be read.
func (b *baseRelation) supportsRowScratch() bool {
	return b.cache.computeScratch != nil
}

// streamsDirectedRows reports that computeRow emits directed rows
// which the Relation interface only serves after canonicalisation —
// true exactly for the relations with canonical set (SBPH). It is the
// ComputeStats hook for measuring the symmetrised relation off
// directed row streams; see Stats.
func (b *baseRelation) streamsDirectedRows() bool { return b.canonical }

func (b *baseRelation) Compatible(u, v sgraph.NodeID) (bool, error) {
	if u == v {
		return true, nil // reflexivity
	}
	if b.canonical && u > v {
		u, v = v, u
	}
	r, err := b.row(u)
	if err != nil {
		return false, err
	}
	return r.compatible(v), nil
}

func (b *baseRelation) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	if u == v {
		return 0, true, nil
	}
	if b.canonical && u > v {
		u, v = v, u
	}
	r, err := b.row(u)
	if err != nil {
		return 0, false, err
	}
	d, ok := r.distance(v)
	return d, ok, nil
}

// ---------------------------------------------------------------------------
// DPE and NNE: edge-test compatibility with plain BFS distances.

// edgeRelation implements DPE (compatible iff a positive edge joins
// the pair) and NNE (compatible iff no negative edge joins the pair).
// Both use plain shortest-path distance.
type edgeRelation struct {
	baseRelation
}

type edgeRow struct {
	g    *sgraph.Graph
	u    sgraph.NodeID
	kind Kind
	dist []int32
}

func (r *edgeRelation) computeRow(u sgraph.NodeID) (row, error) {
	g := r.graph()
	return &edgeRow{g: g, u: u, kind: r.kind, dist: signedbfs.Distances(g, u)}, nil
}

// computeRowFresh builds a persistent (cacheable) row while borrowing
// the worker's BFS scratch for transient state.
func (r *edgeRelation) computeRowFresh(u sgraph.NodeID, s *rowScratch) (row, error) {
	g := r.graph()
	return &edgeRow{g: g, u: u, kind: r.kind, dist: signedbfs.DistancesInto(g, u, nil, s.bfs)}, nil
}

// computeRowInto builds a transient row entirely backed by the worker's
// scratch; the row is only valid until the worker's next call. The
// streaming statistics sweep uses it so a full Table 2 scan performs no
// per-source allocations for this relation family.
func (r *edgeRelation) computeRowInto(u sgraph.NodeID, s *rowScratch) (row, error) {
	g := r.graph()
	s.dist = signedbfs.DistancesInto(g, u, s.dist, s.bfs)
	s.edgeRow = edgeRow{g: g, u: u, kind: r.kind, dist: s.dist}
	return &s.edgeRow, nil
}

func (r *edgeRow) compatible(v sgraph.NodeID) bool {
	s, ok := r.g.EdgeSign(r.u, v)
	if r.kind == DPE {
		return ok && s == sgraph.Positive
	}
	return !ok || s == sgraph.Positive // NNE: no negative edge
}

func (r *edgeRow) distance(v sgraph.NodeID) (int32, bool) {
	d := r.dist[v]
	return d, d != signedbfs.Unreachable
}

// ---------------------------------------------------------------------------
// SPA / SPM / SPO: shortest-path sign counting (Algorithm 1).

type spRelation struct {
	baseRelation
}

type spRow struct {
	kind Kind
	res  *signedbfs.Result
}

func (r *spRelation) computeRow(u sgraph.NodeID) (row, error) {
	return &spRow{kind: r.kind, res: signedbfs.CountPaths(r.graph(), u)}, nil
}

// computeRowFresh builds a persistent row, reusing only the worker's
// transient BFS scratch (queue + epoch stamps).
func (r *spRelation) computeRowFresh(u sgraph.NodeID, s *rowScratch) (row, error) {
	return &spRow{kind: r.kind, res: signedbfs.CountPathsInto(r.graph(), u, &signedbfs.Result{}, s.bfs)}, nil
}

// computeRowInto builds a transient scratch-backed row; see the
// edgeRelation counterpart.
func (r *spRelation) computeRowInto(u sgraph.NodeID, s *rowScratch) (row, error) {
	signedbfs.CountPathsInto(r.graph(), u, &s.res, s.bfs)
	s.spRow = spRow{kind: r.kind, res: &s.res}
	return &s.spRow, nil
}

func (r *spRow) compatible(v sgraph.NodeID) bool {
	if !r.res.Reachable(v) {
		return false
	}
	switch r.kind {
	case SPA:
		return r.res.AllPositive(v)
	case SPM:
		return r.res.MajorityPositive(v)
	default: // SPO
		return r.res.HasPositive(v)
	}
}

func (r *spRow) distance(v sgraph.NodeID) (int32, bool) {
	d := r.res.Dist[v]
	return d, d != signedbfs.Unreachable
}

// ---------------------------------------------------------------------------
// SBPH: heuristic structurally balanced paths.

type sbphRelation struct {
	baseRelation
	beam int
}

type sbpRow struct {
	dists *balance.PathDists
}

func (r *sbphRelation) computeRow(u sgraph.NodeID) (row, error) {
	return &sbpRow{dists: balance.SBPH(r.graph(), u, r.beam)}, nil
}

func (r *sbpRow) compatible(v sgraph.NodeID) bool {
	return r.dists.PosDist[v] != balance.NoPath
}

func (r *sbpRow) distance(v sgraph.NodeID) (int32, bool) {
	d := r.dists.PosDist[v]
	return d, d != balance.NoPath
}

// ---------------------------------------------------------------------------
// SBP: exact structurally balanced paths (budgeted, exponential).

type sbpRelation struct {
	baseRelation
	opts balance.ExactOptions
}

func (r *sbpRelation) computeRow(u sgraph.NodeID) (row, error) {
	d, err := balance.ExactSBP(r.graph(), u, r.opts)
	if err != nil {
		return nil, err
	}
	return &sbpRow{dists: d}, nil
}

// Compile-time interface checks.
var (
	_ MutableRelation = (*edgeRelation)(nil)
	_ MutableRelation = (*spRelation)(nil)
	_ MutableRelation = (*sbphRelation)(nil)
	_ MutableRelation = (*sbpRelation)(nil)
)
