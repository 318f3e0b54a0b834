// The relation-level mutation oracle: every mutable engine — lazy, and
// packed across shard geometries from the single-shard matrix through
// fully resident multi-shard ones to the spill and no-mmap
// configurations, and engines opened from a saved file — is driven
// through the same seeded mutation sequence, and after every step each
// engine must agree pair-for-pair (Compatible, Distance, and the packed
// engine's DistanceRow) with a relation built from scratch on the
// mutated edge set. This is the correctness contract of the whole
// epoch/dirty-shard machinery: lazy rebuilds, stale-shard invalidation,
// spill epoch tags and view relocation are all observable only through
// disagreement with the fresh build.

package compat

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/balance"
	"repro/internal/sgraph"
)

// edgeSet tracks the oracle's ground-truth edge list across mutations.
type edgeSet struct {
	n     int
	signs map[[2]sgraph.NodeID]sgraph.Sign
}

func newEdgeSet(g *sgraph.Graph) *edgeSet {
	es := &edgeSet{n: g.NumNodes(), signs: map[[2]sgraph.NodeID]sgraph.Sign{}}
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		g.Neighbors(u, func(v sgraph.NodeID, s sgraph.Sign) bool {
			if u < v {
				es.signs[[2]sgraph.NodeID{u, v}] = s
			}
			return true
		})
	}
	return es
}

func edgeKey(u, v sgraph.NodeID) [2]sgraph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]sgraph.NodeID{u, v}
}

// apply mirrors one mutation onto the ground truth.
func (es *edgeSet) apply(m sgraph.Mutation) {
	k := edgeKey(m.U, m.V)
	switch m.Op {
	case sgraph.MutAdd:
		es.signs[k] = m.Sign
	case sgraph.MutRemove:
		delete(es.signs, k)
	case sgraph.MutFlip:
		es.signs[k] = -es.signs[k]
	}
}

// graph rebuilds the ground-truth graph from scratch.
func (es *edgeSet) graph() *sgraph.Graph {
	edges := make([]sgraph.Edge, 0, len(es.signs))
	for k, s := range es.signs {
		edges = append(edges, sgraph.Edge{U: k[0], V: k[1], Sign: s})
	}
	return sgraph.MustFromEdges(es.n, edges)
}

// randomMutation draws a valid mutation against the current edge set:
// additions pick a non-edge pair, removals and flips an existing edge.
func (es *edgeSet) randomMutation(rng *rand.Rand) sgraph.Mutation {
	op := sgraph.MutOp(1 + rng.Intn(3))
	if len(es.signs) == 0 {
		op = sgraph.MutAdd
	}
	if op == sgraph.MutAdd {
		for {
			u := sgraph.NodeID(rng.Intn(es.n))
			v := sgraph.NodeID(rng.Intn(es.n))
			if u == v {
				continue
			}
			if _, dup := es.signs[edgeKey(u, v)]; dup {
				continue
			}
			sign := sgraph.Positive
			if rng.Intn(3) == 0 {
				sign = sgraph.Negative
			}
			return sgraph.Mutation{Op: op, U: u, V: v, Sign: sign}
		}
	}
	i := rng.Intn(len(es.signs))
	for k := range es.signs {
		if i == 0 {
			return sgraph.Mutation{Op: op, U: k[0], V: k[1]}
		}
		i--
	}
	panic("unreachable")
}

// mutEngine is one engine under oracle test.
type mutEngine struct {
	name string
	rel  Relation
}

// buildMutEngines constructs every mutable engine configuration over g.
// Shard heights cover the matrix configuration (one shard, all
// resident), the degenerate single-row shard, a height that straddles
// shard boundaries, one 64-row sweep block — all fully resident, so
// they read through the lock-free table and republish it on every
// invalidating mutation — and spilling (mmap and ReadAt) variants with
// only two resident shards.
func buildMutEngines(t *testing.T, k Kind, g *sgraph.Graph, opts Options) []mutEngine {
	t.Helper()
	engines := []mutEngine{
		{"lazy", mustNew(k, g, opts)},
		{"matrix", mustMatrix(k, g, opts)},
	}
	heights := []int{1, 7, 64}
	if n := g.NumNodes(); n > 64 {
		heights = append(heights, n)
	}
	for _, rows := range heights {
		engines = append(engines, mutEngine{
			fmt.Sprintf("sharded-%dr", rows),
			mustSharded(t, k, g, ShardedOptions{Options: opts, ShardRows: rows}),
		})
	}
	engines = append(engines,
		mutEngine{"sharded-spill", mustSharded(t, k, g, ShardedOptions{
			Options: opts, ShardRows: 3, MaxResidentShards: 2, SpillDir: t.TempDir(),
		})},
		mutEngine{"sharded-resident", mustSharded(t, k, g, ShardedOptions{
			Options: opts, ShardRows: 64, MaxResidentShards: 0,
		})},
		mutEngine{"sharded-nommap", mustSharded(t, k, g, ShardedOptions{
			Options: opts, ShardRows: 3, MaxResidentShards: 2, DisableMmap: true, SpillDir: t.TempDir(),
		})},
	)
	// Engines opened from a saved file, mapped and decoded: mutations
	// rebuild their shards on the heap and must leave the file
	// byte-identical.
	for _, useMmap := range []bool{true, false} {
		saved := mustSharded(t, k, g, ShardedOptions{Options: opts, ShardRows: 7})
		path := filepath.Join(t.TempDir(), "engine.stpk")
		if err := saved.Save(path); err != nil {
			t.Fatal(err)
		}
		saved.Close()
		sum := fileSum(t, path)
		t.Cleanup(func() {
			if fileSum(t, path) != sum {
				t.Errorf("mutating an opened engine rewrote its file %s", path)
			}
		})
		opened, err := openSharded(path, g, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, mutEngine{fmt.Sprintf("opened-mmap=%v", useMmap), opened})
	}
	return engines
}

// pairTable is a fresh-built oracle's answer to every ordered pair,
// taken once so several engines are checked without re-asking it.
type pairTable struct {
	n   int
	ok  []bool
	d   []int32
	def []bool
}

// oracleTable asks the oracle every ordered pair once.
func oracleTable(t *testing.T, oracle Relation) *pairTable {
	t.Helper()
	n := oracle.Graph().NumNodes()
	tab := &pairTable{n: n, ok: make([]bool, n*n), d: make([]int32, n*n), def: make([]bool, n*n)}
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			i := int(u)*n + int(v)
			var err error
			if tab.ok[i], err = oracle.Compatible(u, v); err != nil {
				t.Fatalf("oracle Compatible(%d,%d): %v", u, v, err)
			}
			if tab.d[i], tab.def[i], err = oracle.Distance(u, v); err != nil {
				t.Fatalf("oracle Distance(%d,%d): %v", u, v, err)
			}
		}
	}
	return tab
}

// checkAgainstOracle compares one engine against the fresh-built
// oracle's answers on every ordered pair, plus the packed row fast
// paths.
func checkAgainstOracle(t *testing.T, step int, name string, eng Relation, want *pairTable) {
	t.Helper()
	n := want.n
	for u := sgraph.NodeID(0); int(u) < n; u++ {
		var row DistRow
		if packed, ok := eng.(PackedRelation); ok {
			row = packed.DistanceRow(u)
		}
		for v := sgraph.NodeID(0); int(v) < n; v++ {
			i := int(u)*n + int(v)
			wantOK, wantD, wantDef := want.ok[i], want.d[i], want.def[i]
			gotOK, err := eng.Compatible(u, v)
			if err != nil {
				t.Fatalf("step %d %s: Compatible(%d,%d): %v", step, name, u, v, err)
			}
			if gotOK != wantOK {
				t.Fatalf("step %d %s: Compatible(%d,%d) = %v, oracle %v", step, name, u, v, gotOK, wantOK)
			}
			gotD, gotDef, err := eng.Distance(u, v)
			if err != nil {
				t.Fatalf("step %d %s: Distance(%d,%d): %v", step, name, u, v, err)
			}
			if gotDef != wantDef || (gotDef && gotD != wantD) {
				t.Fatalf("step %d %s: Distance(%d,%d) = (%d,%v), oracle (%d,%v)",
					step, name, u, v, gotD, gotDef, wantD, wantDef)
			}
			if row.Len() > 0 {
				if rd, rdef := row.At(v); rdef != wantDef || (wantDef && rd != wantD) {
					t.Fatalf("step %d %s: DistanceRow(%d).At(%d) = (%d,%v), oracle (%d,%v)",
						step, name, u, v, rd, rdef, wantD, wantDef)
				}
			}
		}
	}
}

// TestMutationOracle drives every engine configuration through the
// same seeded mutation sequence and asserts exact agreement with a
// fresh build after every step: a long sequence on a small random
// graph, then a few steps on each blockGraphs input, whose stale-shard
// rebuilds span several 64-row sweep blocks.
func TestMutationOracle(t *testing.T) {
	opts := Options{Exact: balance.ExactOptions{MaxLen: 6}}
	const n, steps, blockSteps = 14, 24, 2
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(700 + int64(k)))
			g := randomSignedGraph(rng, n, 2*n, 0.3)
			runMutationOracle(t, "", k, g, opts, steps, rng, nil)
			for _, bg := range blockGraphs(rng) {
				if !bg.runs(k) {
					continue
				}
				runMutationOracle(t, bg.name+" ", k, bg.g, blockOpts, blockSteps, rng, bg.muts)
			}
		})
	}
}

// runMutationOracle is one TestMutationOracle sequence: the mutations
// muts, then steps random mutations of g, each checked on every engine
// against a fresh build, then a rejected mutation that must change
// nothing. label prefixes failure messages.
func runMutationOracle(t *testing.T, label string, k Kind, g *sgraph.Graph, opts Options, steps int, rng *rand.Rand, muts []sgraph.Mutation) {
	t.Helper()
	engines := buildMutEngines(t, k, g, opts)
	defer func() {
		for _, e := range engines {
			if sm, ok := e.rel.(*ShardedMatrix); ok {
				sm.Close()
			}
		}
	}()
	es := newEdgeSet(g)
	steps += len(muts)
	for step := 0; step < steps; step++ {
		var mut sgraph.Mutation
		if step < len(muts) {
			mut = muts[step]
		} else {
			mut = es.randomMutation(rng)
		}
		es.apply(mut)
		oracle := oracleTable(t, mustNew(k, es.graph(), opts))
		for _, e := range engines {
			res, err := e.rel.Mutate(mut)
			if err != nil {
				t.Fatalf("%sstep %d %s: Mutate(%v): %v", label, step, e.name, mut, err)
			}
			if res.Epoch != uint64(step+1) {
				t.Fatalf("%sstep %d %s: epoch = %d, want %d", label, step, e.name, res.Epoch, step+1)
			}
			checkAgainstOracle(t, step, label+e.name, e.rel, oracle)
		}
	}
	// Rejected mutations must not move the epoch or disturb data.
	bad := sgraph.Mutation{Op: sgraph.MutAdd, U: 0, V: 0, Sign: sgraph.Positive}
	oracle := oracleTable(t, mustNew(k, es.graph(), opts))
	for _, e := range engines {
		if _, err := e.rel.Mutate(bad); err == nil {
			t.Fatalf("%s%s: self-loop add must fail", label, e.name)
		}
		if got := e.rel.Epoch(); got != uint64(steps) {
			t.Fatalf("%s%s: failed mutation moved epoch to %d", label, e.name, got)
		}
		checkAgainstOracle(t, steps, label+e.name, e.rel, oracle)
	}
}

// TestMutationStatsCounters sanity-checks the observability surface on
// the sharded engine: epochs advance, stale shards appear on mutation
// and drain to zero after the rows are touched, and rebuilds are
// counted.
func TestMutationStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	g := randomSignedGraph(rng, 20, 50, 0.3)
	m := mustSharded(t, SPO, g, ShardedOptions{ShardRows: 4})
	defer m.Close()
	es := newEdgeSet(g)
	mut := es.randomMutation(rng)
	res, err := m.Mutate(mut)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", res.Epoch)
	}
	if res.DirtyShards == 0 {
		t.Fatal("a mutation on a connected random graph should dirty at least one shard")
	}
	st := m.MutationStats()
	if st.Epoch != 1 || st.Mutations != 1 || st.StaleShards != res.DirtyShards {
		t.Fatalf("MutationStats = %+v, want epoch 1, 1 mutation, %d stale", st, res.DirtyShards)
	}
	for u := sgraph.NodeID(0); int(u) < g.NumNodes(); u++ { // touch every row
		if _, err := m.Compatible(u, 0); err != nil {
			t.Fatal(err)
		}
	}
	st = m.MutationStats()
	if st.StaleShards != 0 {
		t.Fatalf("after touching all rows, %d shards still stale", st.StaleShards)
	}
	if st.ShardRebuilds < int64(res.DirtyShards) {
		t.Fatalf("ShardRebuilds = %d, want ≥ %d", st.ShardRebuilds, res.DirtyShards)
	}
	live := m.LiveStats()
	if live.Epoch != 1 || live.Mutations != 1 || live.StaleShards != 0 || live.ShardRebuilds != st.ShardRebuilds {
		t.Fatalf("LiveStats mutation counters diverge: %+v vs %+v", live, st)
	}
}
