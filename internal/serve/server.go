// The HTTP server: endpoint wiring, request parsing, the admission
// prologue shared by the solve endpoints, deadline plumbing and the
// drain contract. See doc.go for the request lifecycle.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// Options configures a Server.
type Options struct {
	// Workers and PlanCache configure the owned Solver
	// (team.SolverOptions); PlanCache should be positive in any real
	// deployment — it is what makes warm solves allocation-free.
	Workers   int
	PlanCache int
	// Deadline is the default per-request time budget; 0 means none.
	// A request's deadline_ms can lower it, never raise it.
	Deadline time.Duration
	// Queue bounds admitted-but-unfinished requests; ≤0 defaults to 64.
	// Beyond the bound, requests are shed with 429.
	Queue int
	// CoalesceWait opens batch windows for /form requests (0 disables
	// coalescing); CoalesceBatch closes a window early at that many
	// callers. See coalesce.go.
	CoalesceWait  time.Duration
	CoalesceBatch int
	// Engine names the relation backend for /stats ("lazy", "matrix",
	// "sharded").
	Engine string
	// Relation, when non-nil, is a startup relation scan (Table 2
	// numbers) surfaced verbatim on /stats. Computing one costs a full
	// all-pairs sweep, so the owner decides (tfsnd gates it behind a
	// flag); nil omits the section.
	Relation *compat.Stats
	// EnableMutations exposes POST /mutate and pins each solve to one
	// graph epoch. Off by default: a serving deployment that wants a
	// fixed corpus should not accept writes because every engine
	// happens to support them.
	EnableMutations bool
}

// Server is the serving layer: one engine, one solver, one admission
// gate, an optional coalescer, and the drain state machine.
type Server struct {
	rel    compat.Relation
	assign *skills.Assignment
	solver *team.Solver
	opts   Options

	gate     gate
	co       *coalescer // nil when coalescing is disabled
	mux      *http.ServeMux
	counters counters
	latency  latencyHistogram // solve-endpoint latency, admit to respond
	draining atomic.Bool

	// baseCtx outlives individual requests (batch windows solve on it)
	// and dies with the server: Wait cancels it once runners finished
	// (or its grace period expired).
	baseCtx context.Context
	cancel  context.CancelFunc

	teams    sync.Pool // *team.Team, reused across direct solves
	relStats *RelationStats
}

// New builds a Server over rel and assign. The relation must outlive
// the server; close it only after Wait returns.
func New(rel compat.Relation, assign *skills.Assignment, opts Options) *Server {
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	s := &Server{
		rel:    rel,
		assign: assign,
		solver: team.NewSolver(rel, assign, team.SolverOptions{
			Workers:   opts.Workers,
			PlanCache: opts.PlanCache,
		}),
		opts: opts,
		gate: newGate(opts.Queue),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if opts.CoalesceWait > 0 {
		s.co = newCoalescer(s, opts.CoalesceWait, opts.CoalesceBatch)
	}
	if opts.Relation != nil {
		s.relStats = summarizeRelation(opts.Relation)
	}
	s.teams.New = func() any { return new(team.Team) }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/form", s.handleForm)
	s.mux.HandleFunc("/formtopk", s.handleTopK)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	if opts.EnableMutations {
		s.mux.HandleFunc("/mutate", s.handleMutate)
	}
	return s
}

// snapshot pins the relation epoch for the duration of one solve, so
// a /mutate cannot move the graph under a request that is mid-answer;
// with mutations disabled it returns the zero Snapshot, whose Release
// is a no-op.
func (s *Server) snapshot() compat.Snapshot {
	if !s.opts.EnableMutations {
		return compat.Snapshot{}
	}
	return s.rel.AcquireSnapshot()
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops admission — new requests answer 503, /healthz flips
// to draining — and flushes open coalescing windows so no request
// waits for a timer that no longer matters. It does not wait for
// anything; the owner shuts down its http.Server (which drains
// in-flight handlers) and then calls Wait.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return // idempotent
	}
	if s.co != nil {
		s.co.flush()
	}
}

// Wait blocks until background batch runners have finished, then
// cancels the server's root context and returns nil — after which
// closing the relation engine is safe. If ctx expires first, the root
// context is canceled (aborting runners at their next cooperative
// check) and Wait returns the deadline error WITHOUT waiting for them
// to unwind: a runner stuck in a non-cooperative call would otherwise
// hang shutdown forever. On that error path the owner should exit the
// process rather than Close the engine — a straggler may still be
// touching it.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		if s.co != nil {
			s.co.wg.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		return fmt.Errorf("serve: drain grace period expired: %w", ctx.Err())
	}
}

// teamResult is the JSON shape of one formed team. seeds_succeeded
// is team.Team's SeedsSucceeded: on /form, the seeds that set a new
// best team; on /formtopk, the seeds priced below the bound, set by
// the k cheapest teams held, of top-K's sequential loop. Both loops
// skip seeds that cannot win, and with them any lazy-engine relation
// error that only a skipped seed's growth would meet.
type teamResult struct {
	Found          bool            `json:"found"`
	Members        []sgraph.NodeID `json:"members,omitempty"`
	Cost           int32           `json:"cost,omitempty"`
	SeedsTried     int             `json:"seeds_tried,omitempty"`
	SeedsSucceeded int             `json:"seeds_succeeded,omitempty"`
	// Infeasible marks a "found: false" caused by contradictory
	// constraints rather than an exhausted search.
	Infeasible bool `json:"infeasible,omitempty"`
}

func resultOf(tm *team.Team) teamResult {
	return teamResult{
		Found:          true,
		Members:        tm.Members,
		Cost:           tm.Cost,
		SeedsTried:     tm.SeedsTried,
		SeedsSucceeded: tm.SeedsSucceeded,
	}
}

type errorResult struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// admit runs the shared solve-endpoint prologue: draining check, then
// the bounded gate. On false the response has been written. The
// returned release must be deferred when admit succeeds.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResult{Error: "draining"})
		return nil, false
	}
	if !s.gate.tryAcquire() {
		s.counters.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResult{Error: "admission queue full"})
		return nil, false
	}
	s.counters.admitted.Add(1)
	s.counters.inFlight.Add(1)
	return func() {
		s.counters.inFlight.Add(-1)
		s.gate.release()
	}, true
}

// parseSolve resolves the query parameters both solve endpoints share,
// checked in this order: the task (comma-separated skill names), the
// policies, maxseeds, then the constraints. Names and grammars are the
// command lines' (internal/cliflags). RandomUser is rejected: it is
// uncacheable, consumes a shared Rng, and has no place in a
// deterministic serving path. Malformed constraints — unparseable ids,
// a negative cap, users outside the dataset — are errors (400);
// well-formed but contradictory ones pass through so the solver
// answers them as cached ErrInfeasible plans.
func (s *Server) parseSolve(q url.Values) (skills.Task, team.Options, error) {
	var opts team.Options
	spec := q.Get("task")
	if spec == "" {
		return nil, opts, errors.New("missing task parameter (comma-separated skill names)")
	}
	task, err := cliflags.ParseTask(s.assign.Universe(), spec)
	if err != nil {
		return nil, opts, err
	}
	if opts.Skill, err = cliflags.ParseSkillPolicy(q.Get("skill")); err != nil {
		return nil, opts, err
	}
	if opts.User, err = cliflags.ParseUserPolicy(q.Get("user")); err != nil {
		return nil, opts, err
	}
	if opts.User == team.RandomUser {
		return nil, opts, errors.New("the random user policy is not servable (non-deterministic, uncacheable); use mindistance or mostcompatible")
	}
	if opts.Cost, err = cliflags.ParseCost(q.Get("cost")); err != nil {
		return nil, opts, err
	}
	if v := q.Get("maxseeds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, opts, fmt.Errorf("bad maxseeds %q", v)
		}
		opts.MaxSeeds = n
	}
	cs := cliflags.ConstraintSpec{Include: q.Get("include"), Exclude: q.Get("exclude")}
	if v := q.Get("maxteam"); v != "" {
		if cs.MaxTeam, err = strconv.Atoi(v); err != nil {
			return nil, opts, fmt.Errorf("bad maxteam %q", v)
		}
	}
	if cs.IsZero() {
		return task, opts, nil
	}
	if opts.Constraints, err = cs.Parse(); err != nil {
		return nil, opts, err
	}
	limit := min(s.rel.Graph().NumNodes(), s.assign.NumUsers())
	if err := opts.Constraints.Validate(limit); err != nil && !errors.Is(err, team.ErrInfeasible) {
		return nil, opts, err
	}
	return task, opts, nil
}

// requestCtx applies the effective deadline: the server default,
// lowered (never raised) by the request's deadline_ms.
func (s *Server) requestCtx(r *http.Request, q url.Values) (context.Context, context.CancelFunc, error) {
	d := s.opts.Deadline
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad deadline_ms %q", v)
		}
		// A value past time.Duration's range would wrap negative when
		// converted, so it is compared first: it lowers no deadline.
		if int64(ms) <= math.MaxInt64/int64(time.Millisecond) {
			if rd := time.Duration(ms) * time.Millisecond; d == 0 || rd < d {
				d = rd
			}
		}
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// writeSolveError maps solver errors onto responses: no team is a
// successful "found: false" (flagged and counted separately when the
// cause is contradictory constraints), a deadline abort is 504, a
// cancellation (client gone, server hard-stopped) is 503.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, team.ErrInfeasible):
		s.counters.infeasible.Add(1)
		writeJSON(w, http.StatusOK, teamResult{Found: false, Infeasible: true})
	case errors.Is(err, team.ErrNoTeam):
		writeJSON(w, http.StatusOK, teamResult{Found: false})
	case errors.Is(err, team.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		s.counters.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResult{Error: "deadline exceeded"})
	case errors.Is(err, team.ErrCanceled) || errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, errorResult{Error: "canceled"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResult{Error: err.Error()})
	}
}

// solveOne is the direct (uncoalesced) solve path into a pooled Team —
// kept as its own method so the alloc benchmark measures exactly what
// a warm /form request runs between parse and response.
//
//tfsn:noalloc
func (s *Server) solveOne(ctx context.Context, task skills.Task, opts team.Options, dst *team.Team) error {
	return s.solver.FormIntoContext(ctx, task, opts, dst)
}

// handleForm answers a single-task query, through a coalescing window
// when one is configured.
func (s *Server) handleForm(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.latency.observe(time.Since(start)) }()
	q := r.URL.Query()
	task, opts, err := s.parseSolve(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResult{Error: err.Error()})
		return
	}
	ctx, cancel, err := s.requestCtx(r, q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResult{Error: err.Error()})
		return
	}
	defer cancel()

	if s.co != nil {
		tm, err := s.co.solve(ctx, task, opts)
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resultOf(tm))
		return
	}
	tm := s.teams.Get().(*team.Team)
	defer s.teams.Put(tm)
	snap := s.snapshot()
	err = s.solveOne(ctx, task, opts, tm)
	snap.Release()
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resultOf(tm))
}

// handleTopK answers a top-k query (never coalesced: result shapes
// differ per k, and top-k traffic is not the hot path).
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.latency.observe(time.Since(start)) }()
	q := r.URL.Query()
	task, opts, err := s.parseSolve(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResult{Error: err.Error()})
		return
	}
	k := 1
	if v := q.Get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil || k <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResult{Error: fmt.Sprintf("bad k %q", v)})
			return
		}
	}
	lambda := 0.0
	if v := q.Get("lambda"); v != "" {
		if lambda, err = strconv.ParseFloat(v, 64); err != nil || math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
			writeJSON(w, http.StatusBadRequest, errorResult{Error: fmt.Sprintf("bad lambda %q (want a finite number >= 0)", v)})
			return
		}
	}
	ctx, cancel, err := s.requestCtx(r, q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResult{Error: err.Error()})
		return
	}
	defer cancel()

	snap := s.snapshot()
	teams, err := s.solver.FormTopKDiverseContext(ctx, task, opts, k, lambda)
	snap.Release()
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	results := make([]teamResult, len(teams))
	for i, tm := range teams {
		results[i] = resultOf(tm)
	}
	writeJSON(w, http.StatusOK, struct {
		Found bool         `json:"found"`
		Teams []teamResult `json:"teams"`
	}{Found: true, Teams: results})
}

// mutateResult is the JSON shape of an applied mutation.
type mutateResult struct {
	Epoch       uint64 `json:"epoch"`
	DirtyShards int    `json:"dirty_shards"`
}

// handleMutate applies one graph mutation. The spec arrives in the
// mut query parameter using the shared cliflags spelling
// ("flip:1:2", "add:3:4:-", "remove:5:6"), so a curl that works here
// works verbatim as a -mutate flag value. Registered only when
// Options.EnableMutations is set. POST only: a mutation moves the
// graph epoch and retires cached plans, so it must never ride on a
// cacheable GET. The response carries the new epoch and how many
// shards the mutation dirtied (0 on unsharded engines).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResult{Error: "mutations require POST"})
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	mut, err := cliflags.ParseMutation(r.URL.Query().Get("mut"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResult{Error: err.Error()})
		return
	}
	res, err := s.rel.Mutate(mut)
	if err != nil {
		// Structure conflicts (duplicate add, missing edge) are the
		// caller's state being stale — 409 so clients can re-read and
		// retry; anything else (bad node IDs) is a bad request.
		code := http.StatusBadRequest
		if errors.Is(err, sgraph.ErrEdgeExists) || errors.Is(err, sgraph.ErrNoSuchEdge) {
			code = http.StatusConflict
		}
		writeJSON(w, code, errorResult{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, mutateResult{Epoch: res.Epoch, DirtyShards: res.DirtyShards})
}

// handleHealthz reports ready (200) or draining (503) — the signal a
// load balancer or the CI smoke uses to stop sending traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// RelationStats is the /stats summary of a startup relation scan.
type RelationStats struct {
	Kind            string  `json:"kind"`
	Pairs           int64   `json:"pairs"`
	CompatiblePairs int64   `json:"compatible_pairs"`
	UserFraction    float64 `json:"user_fraction"`
	AvgDistance     float64 `json:"avg_distance"`
}

func summarizeRelation(st *compat.Stats) *RelationStats {
	return &RelationStats{
		Kind:            st.Kind.String(),
		Pairs:           st.Pairs,
		CompatiblePairs: st.CompatiblePairs,
		UserFraction:    st.UserFraction(),
		AvgDistance:     st.AvgDistance(),
	}
}

// statsPayload is the /stats JSON document.
type statsPayload struct {
	Engine string `json:"engine"`
	// Kernels names the compiled internal/kernels variant ("portable"
	// or "amd64v3"), so recorded serving numbers stay attributable to
	// the binary's hot-loop code path.
	Kernels   string              `json:"kernels"`
	Draining  bool                `json:"draining"`
	Server    ServerStats         `json:"server"`
	PlanCache team.PlanCacheStats `json:"plan_cache"`
	// Latency is the solve-endpoint latency histogram (admit to
	// respond), omitted until the first solve.
	Latency *LatencyStats `json:"latency,omitempty"`
	// Mutation carries the engine's epoch and invalidation counters;
	// present whenever /mutate is enabled.
	Mutation *compat.MutationStats `json:"mutation,omitempty"`
	// Sharded carries the packed engine's live counters (matrix and
	// sharded configurations alike); omitted on the lazy engine.
	Sharded *compat.EngineStats `json:"sharded,omitempty"`
	// Relation is the optional startup scan (Options.Relation).
	Relation *RelationStats `json:"relation,omitempty"`
}

// handleStats snapshots every counter surface. All reads are safe
// while solves and builds are in flight — that is the
// point of the atomic counters underneath.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	p := statsPayload{
		Engine:    s.opts.Engine,
		Kernels:   compat.KernelsVariant(),
		Draining:  s.draining.Load(),
		Server:    s.counters.snapshot(),
		PlanCache: s.solver.PlanCacheStats(),
		Relation:  s.relStats,
	}
	if lat := s.latency.snapshot(); lat.Count > 0 {
		p.Latency = &lat
	}
	if s.opts.EnableMutations {
		mst := s.rel.MutationStats()
		p.Mutation = &mst
	}
	if m, ok := s.rel.(*compat.ShardedMatrix); ok {
		live := m.LiveStats()
		p.Sharded = &live
	}
	writeJSON(w, http.StatusOK, p)
}
