// Package signedteams is a Go implementation of "Forming Compatible
// Teams in Signed Networks" (Kouvatis, Semertzidis, Zerva, Pitoura,
// Tsaparas — EDBT 2020).
//
// Given a social network whose edges are signed (+1 friend / −1 foe),
// the package answers two questions:
//
//  1. Compatibility — can two users work together? Seven relations of
//     increasing permissiveness are provided, built on the theory of
//     structural balance: DPE, SPA, SPM, SPO, SBPH, SBP and NNE (see
//     RelationKind).
//  2. Team formation — given a task (a set of required skills), find
//     a team that covers the skills, is pairwise compatible, and has
//     small communication cost (team diameter).
//
// # Quickstart
//
//	b := signedteams.NewBuilder(4)
//	b.AddEdge(0, 1, signedteams.Positive)
//	b.AddEdge(1, 2, signedteams.Positive)
//	b.AddEdge(0, 3, signedteams.Negative)
//	g := b.MustBuild()
//
//	rel := signedteams.MustNewRelation(signedteams.SPO, g, signedteams.RelationOptions{})
//	ok, _ := rel.Compatible(0, 2) // true: the shortest path 0→2 is positive
//
// Team formation on top of a skill assignment:
//
//	univ, _ := signedteams.NewUniverse([]string{"go", "sql"})
//	assign := signedteams.NewAssignment(univ, g.NumNodes())
//	assign.MustAdd(0, 0)
//	assign.MustAdd(2, 1)
//	team, err := signedteams.FormTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.FormOptions{})
//
// FormTeam is the package's one one-shot formation call. Everything
// else runs on a TeamSolver built once per relation (NewTeamSolver):
// single teams (FormIntoContext), top-k lists (FormTopKContext),
// diverse top-k lists (FormTopKDiverseContext, of which top-k is the
// lambda = 0 case) and batches (FormBatch, FormBatchContext,
// FormBatchSpecs).
//
// # Choosing a relation engine
//
// Two engines implement the Relation interface; they agree answer for
// answer and differ only in how rows are computed and stored:
//
//   - NewRelation (lazy): rows are computed on demand by a signed BFS
//     and held in a bounded cache. No precomputation, O(cache) memory.
//     The default, and the only choice for very large graphs or
//     single-task workloads.
//   - NewShardedRelation (packed): the whole relation is packed up
//     front into bitset rows plus distance rows, in row shards, and
//     batch team formation runs on word-parallel AND/popcount
//     operations, ~3–4× faster at bench scale. Two configurations:
//     "matrix" (ShardRows ≥ NumNodes: one resident shard, Θ(n²)
//     bits and bytes, lock-free reads) for all-pairs statistics and
//     repeated-task serving at moderate n; and "sharded"
//     (MaxResidentShards > 0: at most that many shards in memory, cold
//     shards spilled to a temporary file) for packed-row speed with
//     bounded resident memory, for graphs whose full matrix does not
//     fit. Remember to Close it.
//
// ComputeRelationStats measures the symmetrised relation the
// Relation interface exposes on every engine — including SBPH, whose
// directed lazy rows are scanned over their canonical upper triangle;
// the directed heuristic measurement remains available through
// StatsOptions.DirectedSBPH. See RelationStats.
//
// The subpackages used by the paper's evaluation — synthetic dataset
// stand-ins, the experiment harness regenerating every table and
// figure — are exposed through datasets.go in this package. Everything
// is implemented on the Go standard library alone.
package signedteams
