// Request coalescing: concurrent single-task /form requests that share
// solve options are gathered into short-lived windows and solved as one
// Solver.FormBatchContext call, amortising scratch and plan-cache
// traffic across the window. The first request with a given options
// fingerprint opens a window and arms a timer (Options.CoalesceWait);
// companions arriving before it fires join the window; the window
// closes early once Options.CoalesceBatch callers have gathered.
//
// Lifecycle discipline: a window is either reachable through the
// windows map (its timer will fire it, or a drain flush will) or it is
// detached — and detaching and wg.Add happen under one mutex hold, so
// Server.Wait's wg.Wait can never miss a runner that is about to
// start. Each caller owns a done channel; the runner stores the result
// and closes it. Callers select on their own context alongside done,
// so one slow batch never holds a caller past its deadline — the
// caller answers 504 and the batch result for it is simply dropped.

package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/skills"
	"repro/internal/team"
)

// optsKey is the comparable options fingerprint that decides which
// requests may share a batch window. Rng is absent by construction:
// the RandomUser policy is rejected at parse time. Constraints are
// carried as their canonical string fingerprint ("" when
// unconstrained), so requests under different constraints never merge
// into one window — equal fingerprints imply semantically equal
// constraints, and the window solves with the first caller's full
// Options (see window.opts).
type optsKey struct {
	skill    team.SkillPolicy
	user     team.UserPolicy
	cost     team.CostKind
	maxSeeds int
	cons     string
}

// caller is one request waiting on a window: its task, and the slot
// the runner fills before closing done.
type caller struct {
	task skills.Task
	done chan struct{}
	tm   *team.Team
	err  error
}

// window is one open coalescing group.
type window struct {
	callers []*caller
	timer   *time.Timer
	// opts is the first caller's parsed options — the non-comparable
	// full form of the window's optsKey (every later caller mapped to
	// the same key, so their options are semantically identical).
	opts team.Options
	// latest tracks the furthest caller deadline; when every caller
	// has one (all == true), the batch context uses it, so the batch
	// never outlives the last caller that could still want its result.
	latest time.Time
	all    bool
}

// coalescer gathers same-options callers into windows.
type coalescer struct {
	s     *Server
	wait  time.Duration
	batch int // early-close count; 0 = timer only

	mu       sync.Mutex
	windows  map[optsKey]*window
	draining bool
	wg       sync.WaitGroup // live window runners
}

func newCoalescer(s *Server, wait time.Duration, batch int) *coalescer {
	return &coalescer{s: s, wait: wait, batch: batch, windows: map[optsKey]*window{}}
}

// solve routes one request through a window and waits for the result
// or the caller's own context, whichever comes first.
func (co *coalescer) solve(ctx context.Context, task skills.Task, opts team.Options) (*team.Team, error) {
	k := optsKey{
		skill:    opts.Skill,
		user:     opts.User,
		cost:     opts.Cost,
		maxSeeds: opts.MaxSeeds,
		cons:     opts.Constraints.Fingerprint(),
	}
	c := &caller{task: task, done: make(chan struct{})}

	co.mu.Lock()
	if co.draining {
		// BeginDrain has flushed the windows; a request that raced the
		// flag solves directly rather than opening a window nobody
		// will ever flush.
		co.mu.Unlock()
		tm := new(team.Team)
		if err := co.s.solver.FormIntoContext(ctx, task, opts, tm); err != nil {
			return nil, err
		}
		return tm, nil
	}
	w := co.windows[k]
	if w == nil {
		w = &window{all: true, opts: opts}
		co.windows[k] = w
		w.timer = time.AfterFunc(co.wait, func() { co.fire(k, w) })
	}
	w.callers = append(w.callers, c)
	if dl, ok := ctx.Deadline(); ok {
		if dl.After(w.latest) {
			w.latest = dl
		}
	} else {
		w.all = false
	}
	runNow := co.batch > 0 && len(w.callers) >= co.batch
	if runNow {
		// Early close: detach under the lock (the timer finds the map
		// slot empty and becomes a no-op). The runner gets its own
		// goroutine — running it on this caller's goroutine would put
		// the solve ahead of the caller's deadline select, so a slow
		// batch could hold this caller past its own deadline.
		delete(co.windows, k)
		w.timer.Stop()
		co.wg.Add(1)
	}
	co.mu.Unlock()

	if runNow {
		go co.run(k, w)
	}
	select {
	case <-c.done:
		return c.tm, c.err
	case <-ctx.Done():
		// The batch may still complete for its other callers; this
		// caller's result is dropped by the runner (done is closed
		// into the void).
		return nil, ctx.Err()
	}
}

// fire is the timer path: detach the window if it is still published
// and run it.
func (co *coalescer) fire(k optsKey, w *window) {
	co.mu.Lock()
	if co.windows[k] != w {
		co.mu.Unlock()
		return // early-closed or flushed; that path runs it
	}
	delete(co.windows, k)
	co.wg.Add(1)
	co.mu.Unlock()
	co.run(k, w)
}

// flush detaches every open window for immediate solving — the drain
// path. Runs them on fresh goroutines so BeginDrain returns without
// waiting on solves; Server.Wait collects them through the WaitGroup.
func (co *coalescer) flush() {
	co.mu.Lock()
	co.draining = true
	detached := make([]*window, 0, len(co.windows))
	keys := make([]optsKey, 0, len(co.windows))
	for k, w := range co.windows {
		w.timer.Stop()
		detached = append(detached, w)
		keys = append(keys, k)
	}
	clear(co.windows)
	co.wg.Add(len(detached))
	co.mu.Unlock()
	for i, w := range detached {
		go co.run(keys[i], w)
	}
}

// run solves one detached window and delivers results. Must be called
// exactly once per wg.Add.
func (co *coalescer) run(k optsKey, w *window) {
	defer co.wg.Done()
	opts := w.opts
	bctx := co.s.baseCtx
	if w.all && len(w.callers) > 0 {
		var cancel context.CancelFunc
		bctx, cancel = context.WithDeadline(bctx, w.latest)
		defer cancel()
	}
	// One snapshot pins the graph epoch for the whole window: every
	// caller's answer reflects the same graph version, and a /mutate
	// that raced the window waits for it rather than splitting it.
	snap := co.s.snapshot()
	defer snap.Release()
	if len(w.callers) == 1 {
		// A window of one coalesced nothing: plain solve, no batch
		// bookkeeping, not counted.
		c := w.callers[0]
		tm := new(team.Team)
		if c.err = co.s.solver.FormIntoContext(bctx, c.task, opts, tm); c.err == nil {
			c.tm = tm
		}
		close(c.done)
		return
	}
	tasks := make([]skills.Task, len(w.callers))
	for i, c := range w.callers {
		tasks[i] = c.task
	}
	teams, err := co.s.solver.FormBatchContext(bctx, tasks, opts)
	for i, c := range w.callers {
		switch {
		case err != nil:
			c.err = err
		case teams[i] == nil:
			c.err = co.noTeamErr(c.task, opts)
		default:
			c.tm = teams[i]
		}
		close(c.done)
	}
	co.s.counters.coalesced.Add(int64(len(w.callers)))
}

// noTeamErr is the error the direct path answers for a task the batch
// found no team for. FormBatch reports every such task as nil, but only
// plan compilation can fail with ErrInfeasible (or a plan-time
// ErrNoTeam), so Plan — a plan-cache hit once the batch has compiled
// the task — recovers that cause; a plan that compiled means the seed
// loop found no team. With the plan cache off (PlanCache 0) the lookup
// compiles the task a second time on the window goroutine; only
// nil-team answers pay it, and a serving deployment runs with a cache.
func (co *coalescer) noTeamErr(task skills.Task, opts team.Options) error {
	if _, err := co.s.solver.Plan(task, opts); errors.Is(err, team.ErrNoTeam) {
		return err
	}
	return team.ErrNoTeam
}
