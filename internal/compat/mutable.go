// The mutation half of the Relation contract. Both engines (lazy and
// packed) wrap their graph in an sgraph.Dynamic: mutations publish a
// new graph epoch and invalidate derived state (cached rows, shards),
// which is recomputed lazily on next access. Readers that need a
// consistent multi-query view across concurrent mutators acquire a
// Snapshot — a read lock that holds mutations off until released.
// Unpinned reads remain race-free (each engine's internal state is
// independently synchronised); the snapshot only adds cross-call
// consistency.

package compat

import "sync"

// MutationResult reports an applied mutation: the epoch it published
// and how many shards it newly invalidated — 0 on the lazy engine; on
// the packed engine, which stales every shard on every mutation, the
// shards that were fresh before it.
type MutationResult struct {
	Epoch       uint64
	DirtyShards int
}

// MutationStats is the cumulative mutation picture of an engine, for
// /stats and tests.
type MutationStats struct {
	// Epoch is the current graph epoch (0 = as built).
	Epoch uint64
	// Mutations counts successfully applied mutations.
	Mutations int64
	// StaleShards is the number of shards currently awaiting a lazy
	// rebuild (always 0 once reads have caught up).
	StaleShards int
	// ShardRebuilds counts lazy shard rebuilds triggered by reads after
	// mutations (a whole-matrix rebuild in the single-shard
	// configuration).
	ShardRebuilds int64
}

// MutableRelation is Relation, whose contract includes mutation. The
// name remains for callers that still spell it.
type MutableRelation = Relation

// Snapshot is a held read-pin on a Relation's current epoch. While any
// snapshot is held, Mutate blocks, so every query between
// AcquireSnapshot and Release sees the same graph version. The zero
// Snapshot is a valid no-op (Release does nothing), which lets callers
// pin conditionally without branching at release time.
type Snapshot struct {
	pin   *sync.RWMutex
	epoch uint64
}

// Release drops the pin. Each acquired snapshot must be released
// exactly once; releasing the zero Snapshot is a no-op.
func (s Snapshot) Release() {
	if s.pin != nil {
		s.pin.RUnlock()
	}
}
