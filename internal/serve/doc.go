// Package serve is the resident serving layer of the team-formation
// daemon (cmd/tfsnd): an HTTP/JSON front end that owns one relation
// engine and one reusable Solver and runs team-formation queries with
// serving-grade request hygiene. It exists because the paper's
// workload is interactive — a task arrives, a team comes back — and
// the repository's engines are built for exactly that shape: plans are
// cached across requests, warm solves on packed engines allocate
// nothing, and the sharded engine bounds memory under any corpus size.
// What was missing is the request lifecycle around them.
//
// A request passes four stages:
//
//	admit → coalesce → solve → respond
//
// # Admission
//
// Admission is a bounded gate (a counting semaphore with a try-acquire,
// admission.go): at most Options.Queue requests are past the gate at
// once, and a request that finds the gate full is shed immediately with
// HTTP 429 and a Retry-After header — the daemon never queues
// unboundedly and never blocks an accept loop on a slow solve. A
// draining server rejects new work with 503 before the gate.
//
// # Deadlines
//
// Every admitted request runs under a context deadline: the server
// default (Options.Deadline) or the request's own deadline_ms, whichever
// is smaller. The deadline propagates into the solver, which checks it
// cooperatively (per seed, per batch task, per worker item) and aborts
// with team.ErrDeadlineExceeded — reported as HTTP 504 — leaving every
// scratch and cached plan reusable. A solver abort never poisons the
// next request.
//
// # Coalescing
//
// With Options.CoalesceWait > 0, concurrent /form requests that share
// solve options are gathered into windows (coalesce.go): the first
// request opens a window and arms a timer, companions join it, and the
// window fires as one Solver.FormBatchContext call when the timer
// expires — or earlier, once Options.CoalesceBatch requests have
// gathered. Batching amortises scratch and plan-cache traffic across
// the window. Each caller still honours its own deadline: a caller
// whose context expires answers 504 even if the batch later completes.
//
// # Mutations
//
// With Options.EnableMutations (tfsnd -mutations), POST
// /mutate?mut=op:u:v[:sign] applies one live edge mutation
// (add / remove / flip; the spec grammar is cliflags.ParseMutation,
// shared with tfsn's -mutate flag). Structural conflicts — adding an
// edge that exists, removing one that doesn't — answer 409 so clients
// can re-read and retry; malformed specs answer 400; GET answers 405.
// A successful mutation returns the new graph epoch and the number of
// shards it staled: on a packed engine every shard still fresh, since
// every mutation stales every shard. Solves are isolated from concurrent mutations by
// snapshots: every direct solve (and every coalescing window) pins the
// engine's epoch for its duration, so a request sees one graph version
// end to end and a racing /mutate waits for the pin to release.
// Without EnableMutations the snapshot is a zero-value no-op and
// /mutate is not registered (404).
//
// # Drain
//
// Graceful shutdown is a three-step contract with the owner (tfsnd):
// BeginDrain stops admission (healthz flips to draining, new requests
// get 503) and flushes open coalescing windows; the owner then shuts
// down its http.Server, which waits for in-flight handlers; finally
// Wait blocks until background batch runners are done (or its context
// expires, which hard-cancels them) — only then is it safe to Close
// the engine, whose spill-file unmapping invalidates any row view a
// runner still holds.
//
// # Observability
//
// /stats reports the server counters (admitted, shed, coalesced,
// deadline-exceeded, in-flight — all atomics, safe to scrape while
// solves are in flight), the solver's plan-cache counters, the sharded
// engine's live counters when that engine is serving, a lock-free
// fixed-bucket solve-latency histogram (histogram.go: power-of-two
// microsecond buckets with mean and conservative p50/p99 upper
// bounds, observed on every admitted solve with no allocation and no
// lock on the request path), the mutation counters (epoch, mutations
// applied, stale shards, rebuilds) when mutations are enabled, and
// optionally a startup relation scan. /healthz reports ready or
// draining.
package serve
