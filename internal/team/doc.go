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
//     instead of per-pair PairDistance lookups, which on the sharded
//     engine collapses one lock per pair into one shard touch per
//     member. The scratch also holds the plan-compilation buffers
//     (ranking keys, degree accumulators, the pool bitset), so the
//     cold plans of a batch compile without re-allocating. Warm
//     TaskPlan.FormInto calls on packed engines therefore allocate
//     nothing at any worker count — asserted by the CI alloc smoke at
//     one and two workers.
//   - SolverOptions.PlanCache adds the cross-request layer: an LRU of
//     compiled plans keyed by the canonical task plus the options
//     fingerprint, so a repeated task skips compilation entirely —
//     Solver.FormInto on a cache hit is allocation-free end to end on
//     packed engines, and Solver.PlanCacheStats reports hits, misses
//     and evictions. Plan compilation is the dominant cost of a cold
//     solve (on the lazy engine the LeastCompatibleFirst degree pass
//     alone is ~80% of a Form call, see BenchmarkLazyFormDecomposed),
//     which is exactly what the cache removes for repeated queries.
//   - A single solve runs Algorithm 2's seed loop sequentially as a
//     branch and bound: once a team is priced, each later seed is
//     abandoned as soon as its running cost reaches the best cost, and
//     the MinDistance kernels take the remaining budget as a ceiling.
//     Costs only grow as members join and a later seed must be
//     strictly cheaper to win, so the answer is exactly the full
//     growth's (pinned against a full-growth oracle in bound_test.go);
//     RandomUser seeds still grow in full, consuming Options.Rng in
//     the legacy order. The solver's worker pool runs
//     Solver.FormBatch's tasks and the top-K seed sweep, with
//     deterministic merges, so results are identical at every worker
//     count.
//   - Team dedup in FormTopK hashes sorted member sets (64-bit FNV
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
// constrained FormInto solves on packed engines stay 0 allocs/op
// (CI-asserted). FormTopKDiverse re-scores FormTopK's candidates by
// cost + lambda·maxOverlap (maximum Jaccard similarity against the
// teams already selected, computed word-parallel over member
// bitsets); lambda = 0 reproduces FormTopK exactly. Both variants are
// pinned bit-identical to brute-force reference oracles across every
// engine, policy and worker count in solver_reference_test.go.
//
// The package-level Form and FormTopK are thin wrappers over a
// single-use, single-worker Solver and produce byte-identical results
// to the pre-solver implementation (asserted against a naive reference
// implementation across all policy/cost/engine combinations in
// solver_test.go).
//
// # Relation engines
//
// Every algorithm takes a compat.Relation and works with either engine
// (lazy, or packed in its matrix or sharded configuration). When the
// relation also implements compat.PackedRelation — the packed engine
// does — the candidate filter, the pool-degree counts of the
// MostCompatible policy and the cost functions switch to word-parallel
// bitset AND/popcount over packed rows instead of per-pair interface
// calls, which is what makes batch team formation several times
// faster on packed backends. The produced teams are identical across
// engines for every deterministic policy combination (see
// matrix_test.go).
package team
