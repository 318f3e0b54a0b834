package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// mustNewRelation is compat.New for tests with known-good arguments:
// it panics on error, so it can build relations inside composite
// literals.
func mustNewRelation(k compat.Kind, g *sgraph.Graph, opts compat.Options) compat.Relation {
	r, err := compat.New(k, g, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// fixtureGraph is the team package's 5-node path fixture: skills A/B/C
// spread over the path, one negative chord.
func fixtureGraph(t testing.TB) (*sgraph.Graph, *skills.Assignment) {
	t.Helper()
	g := sgraph.MustFromEdges(5, []sgraph.Edge{
		{U: 0, V: 1, Sign: sgraph.Positive},
		{U: 1, V: 2, Sign: sgraph.Positive},
		{U: 2, V: 3, Sign: sgraph.Positive},
		{U: 3, V: 4, Sign: sgraph.Positive},
		{U: 1, V: 4, Sign: sgraph.Negative},
	})
	u, err := skills.NewUniverse([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 5)
	a.MustAdd(0, 0) // A
	a.MustAdd(1, 1) // B
	a.MustAdd(2, 1) // B
	a.MustAdd(3, 2) // C
	a.MustAdd(4, 2) // C
	return g, a
}

func matrixRel(t testing.TB, g *sgraph.Graph) compat.Relation {
	t.Helper()
	return mustMatrix(t, compat.NNE, g)
}

// get performs one request against the server's handler.
// formOnce is the direct reference solve the endpoints are compared
// against: one formation on a single-use, single-worker solver.
func formOnce(rel compat.Relation, a *skills.Assignment, task skills.Task, opts team.Options) (*team.Team, error) {
	var tm team.Team
	s := team.NewSolver(rel, a, team.SolverOptions{Workers: 1})
	if err := s.FormIntoContext(context.Background(), task, opts, &tm); err != nil {
		return nil, err
	}
	return &tm, nil
}

func get(t testing.TB, s *Server, path string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	return res, rec.Body.Bytes()
}

func decodeTeam(t testing.TB, body []byte) teamResult {
	t.Helper()
	var tr teamResult
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("bad team JSON %q: %v", body, err)
	}
	return tr
}

// gatedRel wraps a relation so Compatible/Distance block until the
// gate channel closes — the in-flight request holder for admission and
// drain tests. Wrapping hides the packed engine from the solver, which
// is fine: these tests are about the request lifecycle, not the solve.
type gatedRel struct {
	compat.Relation
	gate    <-chan struct{}
	entered chan struct{} // closed on first blocked call
	once    sync.Once
}

func (g *gatedRel) block() {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
}

func (g *gatedRel) Compatible(u, v sgraph.NodeID) (bool, error) {
	g.block()
	return g.Relation.Compatible(u, v)
}

func (g *gatedRel) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	g.block()
	return g.Relation.Distance(u, v)
}

// slowRel delays every relation call, so any deadline shorter than a
// few calls expires mid-solve.
type slowRel struct {
	compat.Relation
	delay time.Duration
}

func (s *slowRel) Compatible(u, v sgraph.NodeID) (bool, error) {
	time.Sleep(s.delay)
	return s.Relation.Compatible(u, v)
}

func (s *slowRel) Distance(u, v sgraph.NodeID) (int32, bool, error) {
	time.Sleep(s.delay)
	return s.Relation.Distance(u, v)
}

func TestFormEndpoint(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, Engine: "matrix"})
	defer s.Wait(context.Background())

	res, body := get(t, s, "/form?task=A,B,C")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", res.StatusCode, body)
	}
	tr := decodeTeam(t, body)
	if !tr.Found || len(tr.Members) == 0 {
		t.Fatalf("no team in %s", body)
	}
	// The served result must equal a direct solve.
	want, err := formOnce(matrixRel(t, g), a, skills.NewTask(0, 1, 2), team.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tr.Members) != fmt.Sprint(want.Members) || tr.Cost != want.Cost {
		t.Fatalf("served %+v, direct %+v", tr, want)
	}

	// Unknown skill, bad policy, missing task: 400s.
	for _, path := range []string{
		"/form?task=A,Z", "/form", "/form?task=A&user=random",
		"/form?task=A&deadline_ms=-5", "/form?task=A&skill=x",
	} {
		if res, _ := get(t, s, path); res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, res.StatusCode)
		}
	}

	// A warm repeat is a plan-cache hit.
	get(t, s, "/form?task=A,B,C")
	if st := s.solver.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("no plan-cache hits after repeat: %+v", st)
	}
}

func TestFormTopKEndpoint(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8})
	defer s.Wait(context.Background())

	res, body := get(t, s, "/formtopk?task=B,C&k=5")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", res.StatusCode, body)
	}
	var out struct {
		Found bool         `json:"found"`
		Teams []teamResult `json:"teams"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Teams) != 2 {
		t.Fatalf("topk result %s, want 2 teams", body)
	}
	if res, _ := get(t, s, "/formtopk?task=B,C&k=0"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 status %d, want 400", res.StatusCode)
	}
}

// malformedQueries are TestMalformedQueryAnswers' requests and their
// exact answers on the fixture; FuzzServeQuery seeds its corpus from
// their queries.
var malformedQueries = []struct {
	path string
	code int
	body string
}{
	{"/form", 400, `{"error":"missing task parameter (comma-separated skill names)"}`},
	{"/formtopk?k=2", 400, `{"error":"missing task parameter (comma-separated skill names)"}`},
	{"/form?task=A,Z&skill=x", 400, `{"error":"unknown skill \"Z\""}`},
	{"/formtopk?task=A,%20Z&skill=x", 400, `{"error":"unknown skill \" Z\""}`},
	{"/form?task=A&skill=x", 400, `{"error":"unknown skill policy \"x\" (want rarest or leastcompatible)"}`},
	{"/form?task=A&user=x&maxteam=y", 400, `{"error":"unknown user policy \"x\" (want mindistance, mostcompatible or random)"}`},
	{"/form?task=A&user=random", 400, `{"error":"the random user policy is not servable (non-deterministic, uncacheable); use mindistance or mostcompatible"}`},
	{"/form?task=A&cost=x&maxseeds=-1", 400, `{"error":"unknown cost \"x\" (want diameter or sumdistance)"}`},
	{"/form?task=A&maxseeds=-1&maxteam=y", 400, `{"error":"bad maxseeds \"-1\""}`},
	{"/formtopk?task=A&maxseeds=-1&k=0", 400, `{"error":"bad maxseeds \"-1\""}`},
	{"/form?task=A&maxteam=y&deadline_ms=0", 400, `{"error":"bad maxteam \"y\""}`},
	{"/formtopk?task=A&include=x&k=0", 400, `{"error":"include: bad user id \"x\" in \"x\" (want a non-negative decimal)"}`},
	{"/form?task=A&include=99", 400, `{"error":"team: constraint user 99 out of range [0, 5)"}`},
	{"/form?task=A&deadline_ms=0", 400, `{"error":"bad deadline_ms \"0\""}`},
	{"/formtopk?task=A&deadline_ms=0", 400, `{"error":"bad deadline_ms \"0\""}`},
	{"/formtopk?task=B,C&k=0&deadline_ms=x", 400, `{"error":"bad k \"0\""}`},
	{"/formtopk?task=B,C&k=2&lambda=NaN&deadline_ms=x", 400, `{"error":"bad lambda \"NaN\" (want a finite number \u003e= 0)"}`},
	{"/formtopk?task=B,C&lambda=1&deadline_ms=x", 400, `{"error":"bad deadline_ms \"x\""}`},
	{"/form?task=A,B,C&k=abc&lambda=NaN", 200, `{"found":true,"members":[0,1,3],"cost":3,"seeds_tried":1,"seeds_succeeded":1}`},
}

// TestMalformedQueryAnswers pins the exact status and body of malformed
// solve queries. Where a query carries several faults, the answer names
// the first in the order task, policies, maxseeds, constraints, k and
// lambda (/formtopk only), deadline_ms; /form ignores k and lambda.
func TestMalformedQueryAnswers(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8})
	defer s.Wait(context.Background())

	for _, tc := range malformedQueries {
		res, body := get(t, s, tc.path)
		if res.StatusCode != tc.code || string(body) != tc.body+"\n" {
			t.Errorf("%s: %d %s, want %d %s", tc.path, res.StatusCode, body, tc.code, tc.body)
		}
	}
}

// TestNoTeamIsFoundFalse: an infeasible task is a successful "found:
// false" response, not an error status.
func TestNoTeamIsFoundFalse(t *testing.T) {
	g := sgraph.MustFromEdges(2, []sgraph.Edge{{U: 0, V: 1, Sign: sgraph.Negative}})
	u, err := skills.NewUniverse([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	a := skills.NewAssignment(u, 2)
	a.MustAdd(0, 0)
	a.MustAdd(1, 1)
	s := New(mustMatrix(t, compat.NNE, g), a, Options{PlanCache: 4})
	defer s.Wait(context.Background())

	res, body := get(t, s, "/form?task=A,B")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", res.StatusCode, body)
	}
	if tr := decodeTeam(t, body); tr.Found {
		t.Fatalf("incompatible pair formed a team: %s", body)
	}
}

// TestFormConstraintsEndpoint: the include/exclude/maxteam query
// parameters reach the solver as team.Constraints — the served result
// equals a direct constrained solve, malformed constraints are 400s,
// and contradictory ones are a successful "found: false, infeasible:
// true" with its own counter.
func TestFormConstraintsEndpoint(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := matrixRel(t, g)
	s := New(rel, a, Options{PlanCache: 8})
	defer s.Wait(context.Background())

	// Excluding user 1 with a size cap must match the direct solve.
	res, body := get(t, s, "/form?task=A,B,C&exclude=1&maxteam=4")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", res.StatusCode, body)
	}
	tr := decodeTeam(t, body)
	want, err := formOnce(rel, a, skills.NewTask(0, 1, 2), team.Options{
		Constraints: team.Constraints{MustExclude: []sgraph.NodeID{1}, MaxTeamSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tr.Members) != fmt.Sprint(want.Members) || tr.Cost != want.Cost {
		t.Fatalf("served %+v, direct %+v", tr, want)
	}
	for _, m := range tr.Members {
		if m == 1 {
			t.Fatalf("excluded user 1 served in %v", tr.Members)
		}
	}

	// A required member shows up in the team.
	res, body = get(t, s, "/form?task=A,B&include=3")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("include status %d, body %s", res.StatusCode, body)
	}
	tr = decodeTeam(t, body)
	found := false
	for _, m := range tr.Members {
		found = found || m == 3
	}
	if !tr.Found || !found {
		t.Fatalf("include=3 not honoured: %s", body)
	}

	// Malformed constraints — unparseable ids, a negative or garbled
	// cap, users outside the dataset — are client errors.
	for _, path := range []string{
		"/form?task=A,B&include=x",
		"/form?task=A,B&maxteam=-1",
		"/form?task=A,B&maxteam=zz",
		"/form?task=A,B&include=99",
		"/form?task=A,B&exclude=1,-2",
	} {
		if res, body := get(t, s, path); res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", path, res.StatusCode, body)
		}
	}

	// Excluding every holder of B is contradictory, not malformed: the
	// solver answers it as a cached infeasible plan, 200 with the flag.
	res, body = get(t, s, "/form?task=A,B&exclude=1,2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("infeasible status %d (%s), want 200", res.StatusCode, body)
	}
	if tr = decodeTeam(t, body); tr.Found || !tr.Infeasible {
		t.Fatalf("infeasible exclusion answered %s, want found:false infeasible:true", body)
	}
	// An include∩exclude contradiction takes the same path.
	res, body = get(t, s, "/form?task=A,B&include=1&exclude=1")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("overlap status %d (%s), want 200", res.StatusCode, body)
	}
	if tr = decodeTeam(t, body); tr.Found || !tr.Infeasible {
		t.Fatalf("overlap answered %s, want found:false infeasible:true", body)
	}
	if st := s.counters.snapshot(); st.Infeasible < 2 {
		t.Fatalf("infeasible counter %d, want >= 2", st.Infeasible)
	}
}

// TestFormTopKDiverseParam: the lambda query parameter switches
// /formtopk to diversity re-scoring, matching the direct
// FormTopKDiverseContext call; garbage, negative and infinite lambdas
// are 400s.
func TestFormTopKDiverseParam(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := matrixRel(t, g)
	s := New(rel, a, Options{PlanCache: 8})
	defer s.Wait(context.Background())

	for _, path := range []string{
		"/formtopk?task=B,C&k=3&lambda=abc",
		"/formtopk?task=B,C&k=3&lambda=-1",
		"/formtopk?task=B,C&k=3&lambda=inf",
		"/formtopk?task=B,C&k=3&lambda=+Inf",
	} {
		if res, body := get(t, s, path); res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", path, res.StatusCode, body)
		}
	}

	res, body := get(t, s, "/formtopk?task=B,C&k=3&lambda=0.5")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", res.StatusCode, body)
	}
	var out struct {
		Found bool         `json:"found"`
		Teams []teamResult `json:"teams"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want, err := team.NewSolver(rel, a, team.SolverOptions{}).FormTopKDiverseContext(context.Background(), skills.NewTask(1, 2), team.Options{}, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Teams) != len(want) {
		t.Fatalf("diverse topk %s, want %d teams", body, len(want))
	}
	for i := range want {
		if fmt.Sprint(out.Teams[i].Members) != fmt.Sprint(want[i].Members) || out.Teams[i].Cost != want[i].Cost {
			t.Fatalf("diverse team %d served %+v, direct %+v", i, out.Teams[i], want[i])
		}
	}
}

// TestCoalescingConstraintSplit: requests under different constraints
// must never merge into one batch window — a constrained request that
// landed in an unconstrained window would be solved without its
// constraints. The two unconstrained callers share a window (coalesced
// = 2); the constrained caller runs in its own window of one
// (uncounted) and still honours its exclusion. A merged window would
// count all three.
func TestCoalescingConstraintSplit(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, CoalesceWait: 40 * time.Millisecond})
	defer s.Wait(context.Background())

	paths := []string{"/form?task=A,B,C", "/form?task=A,B,C", "/form?task=A,B,C&exclude=4"}
	results := make([]teamResult, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			res, body := get(t, s, path)
			if res.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d (%s)", path, res.StatusCode, body)
				return
			}
			results[i] = decodeTeam(t, body)
		}(i, path)
	}
	wg.Wait()
	for i, tr := range results {
		if !tr.Found {
			t.Fatalf("request %d found no team", i)
		}
	}
	for _, m := range results[2].Members {
		if m == 4 {
			t.Fatalf("constrained caller's exclusion lost in a merged window: %v", results[2].Members)
		}
	}
	if st := s.counters.snapshot(); st.Coalesced != 2 {
		t.Fatalf("coalesced %d, want 2 (constrained caller must sit in its own window)", st.Coalesced)
	}
}

// TestCoalescingKeepsInfeasible: a coalesced caller whose constraints
// rule its task out answers as the direct path does — found false,
// flagged infeasible and counted — although the batch reports it as a
// nil team. Excluding users 1 and 2 removes every B holder, so A,B is
// infeasible while A,C still has a team; the count trigger puts both
// in one window.
func TestCoalescingKeepsInfeasible(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, CoalesceWait: time.Hour, CoalesceBatch: 2})
	defer s.Wait(context.Background())

	paths := []string{"/form?task=A,B&exclude=1,2", "/form?task=A,C&exclude=1,2"}
	results := make([]teamResult, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			res, body := get(t, s, path)
			if res.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d (%s)", path, res.StatusCode, body)
				return
			}
			results[i] = decodeTeam(t, body)
		}(i, path)
	}
	wg.Wait()
	if tr := results[0]; tr.Found || !tr.Infeasible {
		t.Fatalf("infeasible caller answered %+v, want found=false infeasible=true", tr)
	}
	if tr := results[1]; !tr.Found || tr.Infeasible {
		t.Fatalf("feasible caller answered %+v, want a team", tr)
	}
	st := s.counters.snapshot()
	if st.Coalesced != 2 || st.Infeasible != 1 {
		t.Fatalf("coalesced %d, infeasible %d; want 2 and 1", st.Coalesced, st.Infeasible)
	}
}

// TestAdmissionOverflow429: with a single admission slot held by a
// blocked solve, the next request is shed instantly with 429 and
// Retry-After, never queued.
func TestAdmissionOverflow429(t *testing.T) {
	g, a := fixtureGraph(t)
	gate := make(chan struct{})
	rel := &gatedRel{Relation: mustNewRelation(compat.NNE, g, compat.Options{}), gate: gate, entered: make(chan struct{})}
	s := New(rel, a, Options{Queue: 1})

	first := make(chan teamResult, 1)
	go func() {
		_, body := get(t, s, "/form?task=A,B,C")
		first <- decodeTeam(t, body)
	}()
	<-rel.entered // the slot is held mid-solve

	res, _ := get(t, s, "/form?task=A,B,C")
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	st := s.counters.snapshot()
	if st.Shed != 1 || st.Admitted != 1 || st.InFlight != 1 {
		t.Fatalf("counters %+v, want shed=1 admitted=1 in_flight=1", st)
	}

	close(gate) // release the blocked solve
	if tr := <-first; !tr.Found {
		t.Fatalf("blocked request failed after release: %+v", tr)
	}
	if st := s.counters.snapshot(); st.InFlight != 0 {
		t.Fatalf("in_flight %d after completion, want 0", st.InFlight)
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadline504: an expired per-request deadline aborts the solve
// with 504 and does not poison the solver — the next request returns
// the exact direct-solve result.
func TestDeadline504(t *testing.T) {
	g, a := fixtureGraph(t)
	base := mustNewRelation(compat.NNE, g, compat.Options{})
	s := New(&slowRel{Relation: base, delay: 2 * time.Millisecond}, a, Options{PlanCache: 8})
	defer s.Wait(context.Background())

	res, body := get(t, s, "/form?task=A,B,C&deadline_ms=1")
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", res.StatusCode, body)
	}
	if st := s.counters.snapshot(); st.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded %d, want 1", st.DeadlineExceeded)
	}

	res, body = get(t, s, "/form?task=A,B,C")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("post-abort status %d (%s), want 200", res.StatusCode, body)
	}
	tr := decodeTeam(t, body)
	want, err := formOnce(base, a, skills.NewTask(0, 1, 2), team.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tr.Members) != fmt.Sprint(want.Members) || tr.Cost != want.Cost {
		t.Fatalf("post-abort solve diverged: served %+v, direct %+v", tr, want)
	}
}

// TestServerDeadlineCap: the request deadline can lower the server
// default but never raise it — nor drop it, as a deadline_ms too large
// for time.Duration would if its conversion wrapped negative.
func TestServerDeadlineCap(t *testing.T) {
	g, a := fixtureGraph(t)
	base := mustNewRelation(compat.NNE, g, compat.Options{})
	// None of these may override the 1ms server default. Each runs on
	// a fresh server: the first solve's slow plan compile is what
	// outlasts the deadline, and a cached plan would skip it.
	for _, ms := range []string{"10000", "9300000000000", "10000000000000", "9223372036854775807"} {
		s := New(&slowRel{Relation: base, delay: 2 * time.Millisecond}, a, Options{Deadline: time.Millisecond})
		res, body := get(t, s, "/form?task=A,B,C&deadline_ms="+ms)
		if res.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("deadline_ms=%s: status %d (%s), want 504 under the server default deadline", ms, res.StatusCode, body)
		}
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescing: concurrent same-options requests are served through
// one batch window and all answer correctly.
func TestCoalescing(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := matrixRel(t, g)
	s := New(rel, a, Options{PlanCache: 8, CoalesceWait: 30 * time.Millisecond})
	defer s.Wait(context.Background())

	tasks := []string{"A,B,C", "B,C", "A,B,C"}
	results := make([]teamResult, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task string) {
			defer wg.Done()
			res, body := get(t, s, "/form?task="+task)
			if res.StatusCode != http.StatusOK {
				t.Errorf("task %s: status %d (%s)", task, res.StatusCode, body)
				return
			}
			results[i] = decodeTeam(t, body)
		}(i, task)
	}
	wg.Wait()
	for i, task := range []skills.Task{skills.NewTask(0, 1, 2), skills.NewTask(1, 2), skills.NewTask(0, 1, 2)} {
		want, err := formOnce(rel, a, task, team.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(results[i].Members) != fmt.Sprint(want.Members) {
			t.Fatalf("coalesced result %d = %+v, direct %+v", i, results[i], want)
		}
	}
	if st := s.counters.snapshot(); st.Coalesced != 3 {
		t.Fatalf("coalesced %d, want 3 (all three shared one window)", st.Coalesced)
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceCountTrigger: a full window fires on the count trigger,
// far before its (deliberately huge) timer.
func TestCoalesceCountTrigger(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{
		PlanCache: 8, CoalesceWait: time.Hour, CoalesceBatch: 2,
	})
	defer s.Wait(context.Background())

	var wg sync.WaitGroup
	codes := make([]int, 2)
	start := time.Now()
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _ := get(t, s, "/form?task=A,B,C")
			codes[i] = res.StatusCode
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("count trigger did not fire early (%v)", elapsed)
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if st := s.counters.snapshot(); st.Coalesced != 2 {
		t.Fatalf("coalesced %d, want 2", st.Coalesced)
	}
}

// TestCoalesceCallerDeadline: a caller whose own deadline expires
// while its window is still waiting answers 504; a patient caller in
// the same window still gets its team.
func TestCoalesceCallerDeadline(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, CoalesceWait: 60 * time.Millisecond})
	defer s.Wait(context.Background())

	var wg sync.WaitGroup
	var impatientCode, patientCode int
	wg.Add(2)
	go func() {
		defer wg.Done()
		res, _ := get(t, s, "/form?task=A,B,C&deadline_ms=1")
		impatientCode = res.StatusCode
	}()
	go func() {
		defer wg.Done()
		res, _ := get(t, s, "/form?task=B,C")
		patientCode = res.StatusCode
	}()
	wg.Wait()
	if impatientCode != http.StatusGatewayTimeout {
		t.Fatalf("impatient caller status %d, want 504", impatientCode)
	}
	if patientCode != http.StatusOK {
		t.Fatalf("patient caller status %d, want 200", patientCode)
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrain: BeginDrain rejects new work and flips healthz while an
// admitted in-flight request runs to completion; Wait returns once
// runners are done; no goroutines leak.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	g, a := fixtureGraph(t)
	gate := make(chan struct{})
	rel := &gatedRel{Relation: mustNewRelation(compat.NNE, g, compat.Options{}), gate: gate, entered: make(chan struct{})}
	s := New(rel, a, Options{Queue: 4})

	inFlight := make(chan int, 1)
	go func() {
		res, _ := get(t, s, "/form?task=A,B,C")
		inFlight <- res.StatusCode
	}()
	<-rel.entered

	s.BeginDrain()
	s.BeginDrain() // idempotent

	if res, _ := get(t, s, "/healthz"); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d while draining, want 503", res.StatusCode)
	}
	if res, _ := get(t, s, "/form?task=A,B,C"); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request status %d while draining, want 503", res.StatusCode)
	}
	// /stats still answers while draining.
	if res, body := get(t, s, "/stats"); res.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d while draining (%s)", res.StatusCode, body)
	}

	close(gate)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("admitted in-flight request finished %d, want 200 (drain must not cancel admitted work)", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// No goroutine leaks: give stragglers a moment, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, now)
	}
}

// TestDrainFlushesWindows: a caller parked in a coalescing window is
// answered promptly when drain flushes the window — it does not wait
// out the timer.
func TestDrainFlushesWindows(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, CoalesceWait: time.Hour})

	got := make(chan teamResult, 1)
	go func() {
		_, body := get(t, s, "/form?task=A,B,C")
		got <- decodeTeam(t, body)
	}()
	// Wait until the caller is parked in a window.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.co.mu.Lock()
		parked := len(s.co.windows) > 0
		s.co.mu.Unlock()
		if parked || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.BeginDrain()
	select {
	case tr := <-got:
		if !tr.Found {
			t.Fatalf("flushed caller got %+v", tr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flushed caller still waiting — drain did not flush the window")
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWaitGracePeriod: a runner stuck in a long solve is hard-canceled
// when Wait's grace period expires, and Wait reports it.
func TestWaitGracePeriod(t *testing.T) {
	g, a := fixtureGraph(t)
	gate := make(chan struct{})
	defer close(gate)
	rel := &gatedRel{Relation: mustNewRelation(compat.NNE, g, compat.Options{}), gate: gate, entered: make(chan struct{})}
	s := New(rel, a, Options{CoalesceWait: time.Millisecond, CoalesceBatch: 2})

	// Two callers fill the window; the batch blocks on the gated
	// relation. Their handlers give up at their own 50ms deadlines.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, s, "/form?task=A,B,C&deadline_ms=50")
		}()
	}
	<-rel.entered
	wg.Wait() // both callers answered 504; the runner is still stuck

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Wait(ctx)
	if err == nil {
		// The runner unblocked in time after baseCtx cancel — also
		// acceptable only if it actually finished; but the gate is
		// still closed, so Wait must have timed out.
		t.Fatal("Wait returned nil with a runner stuck behind the gate")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait error %v, want a deadline error", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	g, a := fixtureGraph(t)
	m := mustSharded(t, compat.NNE, g, compat.ShardedOptions{ShardRows: 2, MaxResidentShards: 2, SpillDir: t.TempDir()})
	defer m.Close()
	scan, err := compat.ComputeStats(m, compat.StatsOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, a, Options{PlanCache: 8, Engine: "sharded", Relation: scan})
	get(t, s, "/form?task=A,B,C")
	get(t, s, "/form?task=A,B,C")

	res, body := get(t, s, "/stats")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var p statsPayload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("bad stats JSON %s: %v", body, err)
	}
	if p.Engine != "sharded" || p.Draining {
		t.Fatalf("stats header wrong: %s", body)
	}
	if p.Server.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", p.Server.Admitted)
	}
	if p.PlanCache.Hits == 0 {
		t.Fatalf("no plan-cache hit surfaced: %s", body)
	}
	if p.Sharded == nil || p.Sharded.NumShards == 0 {
		t.Fatalf("sharded live stats missing: %s", body)
	}
	if p.Relation == nil || p.Relation.Kind != "NNE" || p.Relation.Pairs == 0 {
		t.Fatalf("relation scan missing: %s", body)
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTraffic hammers every endpoint concurrently under
// -race: solves, scrapes, healthz, and a mid-storm drain.
func TestConcurrentTraffic(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{PlanCache: 8, Queue: 8, CoalesceWait: time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				switch i % 3 {
				case 0:
					res, _ := get(t, s, "/form?task=A,B,C")
					if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusTooManyRequests &&
						res.StatusCode != http.StatusServiceUnavailable {
						t.Errorf("form status %d", res.StatusCode)
					}
				case 1:
					get(t, s, "/stats")
				case 2:
					get(t, s, "/healthz")
				}
			}
		}(i)
	}
	wg.Wait()
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServeSolve measures the solve path of a warm /form request
// — plan-cache hit, pooled Team, background context — which must stay
// allocation-free on the matrix engine (asserted by the CI alloc
// smoke, same contract as BenchmarkPlanCacheServe/warm in team).
func BenchmarkServeSolve(b *testing.B) {
	g, a := fixtureGraph(b)
	s := New(matrixRel(b, g), a, Options{Workers: 1, PlanCache: 8})
	task := skills.NewTask(0, 1, 2)
	opts := team.Options{}
	ctx := context.Background()
	tm := s.teams.Get().(*team.Team)
	b.Run("warm", func(b *testing.B) {
		// Warm inside the sub-benchmark: b.Run executes on its own
		// goroutine, and the solver's scratch pool is per-P, so a
		// warm-up on the parent goroutine can leave one scratch
		// allocation inside the timed region at small -benchtime.
		if err := s.solveOne(ctx, task, opts, tm); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.solveOne(ctx, task, opts, tm); err != nil {
				b.Fatal(err)
			}
		}
	})
	s.teams.Put(tm)
}

// mustMatrix builds the matrix configuration of the packed engine: one
// shard holding every row, all resident.
func mustMatrix(tb testing.TB, k compat.Kind, g *sgraph.Graph) *compat.ShardedMatrix {
	tb.Helper()
	return mustSharded(tb, k, g, compat.ShardedOptions{ShardRows: g.NumNodes()})
}

// mustSharded builds a packed engine, failing tb on error.
func mustSharded(tb testing.TB, k compat.Kind, g *sgraph.Graph, opts compat.ShardedOptions) *compat.ShardedMatrix {
	tb.Helper()
	m, err := compat.NewSharded(k, g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
