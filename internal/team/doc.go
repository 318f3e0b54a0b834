// Package team implements the team formation algorithms of "Forming
// Compatible Teams in Signed Networks" (EDBT 2020): the generic greedy
// Algorithm 2 with its pluggable skill- and user-selection policies,
// the RANDOM baseline, the classic unsigned RarestFirst comparator of
// Lappas et al. (KDD 2009) used by the paper's Table 3, and an
// exhaustive exact solver used as a test oracle on small instances.
//
// A team for task T under compatibility relation Comp is a node set X
// that covers T's skills, is pairwise Comp-compatible, and minimises
// Cost(X) — the team diameter, i.e. the largest pairwise
// relation-distance between members.
//
// # Solver architecture
//
// The package is built around a reusable Solver with a plan/scratch
// split, mirroring what signedbfs.Scratch does for BFS:
//
//   - A Solver binds one (relation, assignment) pair, owns a pool of
//     per-worker scratch and a worker count. It is safe for concurrent
//     use and is the entry point for serving workloads.
//   - Solver.Plan compiles a (task, options) query into a TaskPlan:
//     the policy-ranked skill order (including the compatibility-degree
//     computation behind LeastCompatibleFirst, word-parallel over the
//     assignment's cached packed holder sets on packed engines),
//     Algorithm 2's seed list, and the MostCompatible candidate pool
//     with its precomputed degrees. Everything in a plan is immutable
//     across solves. The pairwise degrees cd(s,s') behind the ranking
//     are task-independent, so the solver memoises them in a dense
//     triangular table per relation epoch, published through an
//     atomic pointer and read without a lock: every pair of skill IDs
//     below 2048 has a slot (at most 8 MiB), so each pair is computed
//     once per epoch. The table replaced a map capped at 2^16 entries,
//     which real universes (Epinions' ~130k pairs) overflowed and
//     reset wholesale.
//   - scratch carries what a single solve mutates: the covered-skill
//     bitset (indexed by task position — no maps), the members and
//     candidate buffers, the row-AND mask that packed engines keep
//     incrementally (adding a member ANDs one row instead of
//     recomputing the whole intersection), and the members' cached
//     packed distance rows — the MinDistance picker and the cost
//     functions scan those rows by plain indexing (compat.DistRow.At)
//     instead of per-pair Distance lookups, which on the sharded
//     engine collapses one lock per pair into one shard touch per
//     member. The scratch also holds the plan-compilation buffers
//     (ranking keys, degree accumulators, the pool bitset), so the
//     cold plans of a batch compile without re-allocating. Warm
//     TaskPlan.FormIntoContext calls on packed engines therefore
//     allocate nothing at any worker count — asserted by the CI alloc
//     smoke at one and two workers.
//   - SolverOptions.PlanCache adds the cross-request layer: an LRU of
//     compiled plans keyed by the canonical task plus the options
//     fingerprint, so a repeated task skips compilation entirely —
//     Solver.FormIntoContext on a cache hit is allocation-free end to
//     end on packed engines, and Solver.PlanCacheStats reports hits,
//     misses and evictions. Plan compilation is the dominant cost of a cold
//     solve (on the lazy engine the LeastCompatibleFirst degree pass
//     alone is ~80% of a cold solve, see BenchmarkLazyFormDecomposed),
//     which is exactly what the cache removes for repeated queries.
//   - A single solve runs Algorithm 2's seed loop sequentially as a
//     branch and bound: once a team is priced, each later seed is
//     abandoned as soon as its running cost reaches the best cost, and
//     the MinDistance kernels take the remaining budget as a ceiling.
//     Costs only grow as members join and a later seed must be
//     strictly cheaper to win, so the answer is exactly the full
//     growth's (pinned against a full-growth oracle in bound_test.go);
//     RandomUser seeds still grow in full, consuming Options.Rng in
//     the legacy order. At bounds up to 3 a seed is screened before it
//     joins: each cost is at least the seed's distance to every other
//     member, and a relation distance is at least the unsigned hop
//     distance, so a seed with some task skill held by no node within
//     bound−1 hops cannot win and is dropped without a grow. Radius 0
//     is the seed's own skills; radii 1 and 2 come from the
//     assignment's skill-reach index (skills.Assignment.Reach), built
//     once per graph snapshot and shared by every solver.
//   - The packed MinDistance pick starts at a proven floor. A
//     candidate is never a member (addMember covers every task skill
//     a member holds), so each member's distance to it is at least 1:
//     a Diameter score is at least 1, a SumDistance score over R
//     members at least R. A score meets that structural floor exactly
//     when every distance is 1, which makes the candidate a common
//     graph neighbour of the members, because a length-1 path is an
//     edge under every relation kind. The pick walks the sorted
//     adjacency of the member with the fewest neighbours (from the
//     engine's current graph), and the first neighbour that qualifies
//     is the exact answer: the minimum score at the smallest id. If
//     none does, the floor rises by one, so a budget at or below it
//     answers none without a kernel call (Diameter's budget 2 after a
//     priced team of cost 2), and the kernels return at the first
//     candidate that scores it. Every pick is checked against a
//     brute-force scan in floor_test.go.
//   - The solver's worker pool runs
//     Solver.FormBatch's tasks and the top-K seed sweep, with
//     deterministic merges, so results are identical at every worker
//     count.
//   - Team dedup in top-K hashes sorted member sets (64-bit FNV
//     with an exact check on collisions) instead of building string
//     keys; the tie-break comparator reproduces the legacy decimal
//     string order exactly.
//
// # Objective variants
//
// Options.Constraints restricts the search — must-include members,
// must-exclude members, a team-size cap — and compiles into the
// TaskPlan rather than post-filtering: includes are pre-covered
// positions that join every grow first, excludes fold into the packed
// eligibility mask as one AND, and the cap gates the growth loop. A
// contradictory constraint set (include ∩ exclude, every holder of a
// required skill excluded, cap below the include count) returns
// ErrInfeasible, which wraps ErrNoTeam and is cached as a negative
// plan entry under the canonical constraint fingerprint. Warm
// constrained FormIntoContext solves on packed engines stay 0
// allocs/op (CI-asserted). FormTopKDiverseContext re-scores the top-K
// candidate list by cost + lambda·maxOverlap (maximum Jaccard
// similarity against the teams already selected, computed
// word-parallel over member bitsets). It is the one top-K routine:
// FormTopKContext is its lambda = 0 case, which keeps the cost order
// and packs no member sets. Both are pinned bit-identical to
// brute-force reference oracles across every engine, policy and
// worker count in solver_reference_test.go.
//
// # Entry points
//
// Formation has one call per kind, on the Solver and, for compiled
// plans, on the TaskPlan: FormIntoContext (one team, into a
// caller-owned Team), FormTopKContext and FormTopKDiverseContext
// (top-K lists), and on the Solver the batch calls FormBatch,
// FormBatchContext and FormBatchSpecs. There are no package-level
// one-shot wrappers: a one-shot solve builds a single-worker Solver
// (the root package's FormTeam does exactly that). The results match
// the pre-solver implementation byte for byte (asserted against a
// naive reference implementation across all policy/cost/engine
// combinations in solver_test.go).
//
// # Relation engines
//
// Every algorithm takes a compat.Relation and works with either engine
// (lazy, or packed in its matrix or sharded configuration). When the
// relation is the packed engine, *compat.ShardedMatrix, NewSolver
// binds to it, and the candidate filter, the MinDistance pick, the
// skill and pool degree counts and the running cost switch to
// word-parallel bitset AND/popcount and distance-row scans instead of
// per-pair interface calls, which is what makes batch team formation
// several times faster on packed backends. The assignment may have
// fewer users than the graph has nodes, never more: the solver refuses
// such a query with an error. The produced teams are identical across
// engines for every deterministic policy combination (see
// matrix_test.go).
package team
