// ShardedMatrix mutation: the one invalidation rule (every mutation
// stales every shard), the lazy post-mutation shard rebuilds and the
// wide promotion, all of which refill shards through fillShard
// (sharded_build.go).

package compat

import (
	"errors"

	"repro/internal/sgraph"
)

// Mutate applies one edge mutation and stales every shard. The
// relations are path relations over the whole graph: on a connected
// graph every row's search reaches both endpoints of any edge, so no
// shard's rows are safe from a mutation. Stale shards leave the
// lock-free table and rebuild lazily on next access via the same
// worker-pool fill path as construction (see freshen); exposed row and
// distance views keep aliasing their pre-mutation slabs. DirtyShards
// counts the shards that were fresh before the mutation.
func (m *ShardedMatrix) Mutate(mut sgraph.Mutation) (MutationResult, error) {
	m.pin.Lock()
	defer m.pin.Unlock()
	_, epoch, err := m.dyn.Apply(mut)
	if err != nil {
		return MutationResult{Epoch: m.dyn.Epoch()}, err
	}
	m.mu.Lock()
	m.curEpoch = epoch
	dirty := m.staleAllLocked()
	m.mu.Unlock()
	m.mutCount.Add(1)
	return MutationResult{Epoch: epoch, DirtyShards: dirty}, nil
}

// staleAllLocked marks every fresh shard stale, drops it from the
// lock-free table and returns how many it marked: the engine's one
// invalidation rule, which mutations and refills share. Requires m.mu.
func (m *ShardedMatrix) staleAllLocked() int {
	marked := 0
	for s := range m.shards {
		if sh := &m.shards[s]; !sh.stale {
			sh.stale = true
			marked++
		}
	}
	if marked > 0 {
		m.staleCount += marked
		m.publishLocked()
	}
	return marked
}

// MutationStats reports the engine's mutation counters.
func (m *ShardedMatrix) MutationStats() MutationStats {
	m.mu.Lock()
	stale := m.staleCount
	m.mu.Unlock()
	return MutationStats{
		Epoch:         m.dyn.Epoch(),
		Mutations:     m.mutCount.Load(),
		StaleShards:   stale,
		ShardRebuilds: m.rebuilds.Load(),
	}
}

// AcquireSnapshot pins the current epoch until Release: mutations
// block, so every query in between sees one graph version. Rebuilds of
// *pre-existing* stale shards may still run during the snapshot — they
// target the pinned epoch, so the view stays consistent.
func (m *ShardedMatrix) AcquireSnapshot() Snapshot {
	m.pin.RLock()
	return Snapshot{pin: &m.pin, epoch: m.dyn.Epoch()}
}

// freshen rebuilds stale shards so that shard s is fresh on return
// (barring a mutation racing in behind it, which the caller's loop
// re-checks). Non-SBPH kinds rebuild exactly shard s; SBPH rebuilds
// every stale shard up to s in ascending order, because shard s's
// lower-triangle tiles read the directed rows of all earlier shards.
// Rebuilds fill entirely fresh slabs and swap them in under the lock,
// then republish the lock-free table once, so concurrent readers of
// other shards proceed and old views survive.
func (m *ShardedMatrix) freshen(s int) error {
	m.freshMu.Lock()
	defer m.freshMu.Unlock()
	m.mu.Lock()
	if !m.shards[s].stale {
		m.mu.Unlock()
		return nil // another freshener got here first
	}
	g, epoch := m.dyn.Snapshot()
	var targets []int
	if m.kind == SBPH {
		for a := 0; a <= s; a++ {
			if m.shards[a].stale {
				targets = append(targets, a)
			}
		}
	} else {
		targets = []int{s}
	}
	m.mu.Unlock()

	scratches, workers := m.rebuildScratches()
	var err error
	for _, t := range targets {
		if err = m.fillShard(g, epoch, t, workers, scratches); err != nil {
			break
		}
	}
	if errors.Is(err, errDistOverflow) {
		// The mutation stretched a relation distance beyond uint8
		// packing: promote the whole engine to int32 storage.
		return m.promoteWide(g, epoch)
	}
	m.mu.Lock()
	m.publishLocked()
	m.mu.Unlock()
	return err
}

// rebuildScratches returns the post-mutation rebuilds' worker
// scratches, allocated by the first rebuild and kept for the later
// ones (their sweeps and SPM counter slabs are graph-sized, so a
// rebuild of one small shard would otherwise pay for allocating and
// zeroing them again). Callers hold freshMu.
func (m *ShardedMatrix) rebuildScratches() ([]*rowScratch, int) {
	if m.rebuildScratch == nil {
		m.rebuildScratch, _ = newWorkerScratches(m.workers, m.n)
	}
	return m.rebuildScratch, len(m.rebuildScratch)
}

// promoteWide rebuilds every shard with int32 distance storage after a
// mutation pushed a relation distance beyond uint8 packing. The refill
// retires the old spill file — kept mapped (exposed views alias it) but
// never written again — and a fresh spill is created lazily on the
// next eviction. Zero-copy views stay off afterwards: re-enabling them
// would need a fully rewritten spill, and wide promotion is a
// once-per-graph event.
func (m *ShardedMatrix) promoteWide(g *sgraph.Graph, epoch uint64) error {
	scratches, workers := m.rebuildScratches()
	return m.refill(g, epoch, true, true, workers, scratches)
}
