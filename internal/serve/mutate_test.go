// Serving-layer mutation tests: the /mutate endpoint contract (method,
// spec parsing, conflict mapping, gating), /stats mutation counters,
// and concurrent /mutate vs /form traffic — the CI race-workers job
// runs the concurrent test under the race detector.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// mustTask resolves skill names against the assignment's universe.
func mustTask(t testing.TB, a *skills.Assignment, names ...string) skills.Task {
	t.Helper()
	var ids []skills.SkillID
	for _, name := range names {
		id, ok := a.Universe().Lookup(name)
		if !ok {
			t.Fatalf("unknown skill %q", name)
		}
		ids = append(ids, id)
	}
	return skills.NewTask(ids...)
}

func sgNode(i int32) sgraph.NodeID { return sgraph.NodeID(i) }

// post performs one POST against the server's handler.
func post(t testing.TB, s *Server, path string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
	res := rec.Result()
	return res, rec.Body.Bytes()
}

func decodeMutate(t testing.TB, body []byte) mutateResult {
	t.Helper()
	var mr mutateResult
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("bad mutate JSON %q: %v", body, err)
	}
	return mr
}

func TestMutateEndpoint(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := mustSharded(t, compat.NNE, g, compat.ShardedOptions{ShardRows: 2})
	defer rel.Close()
	s := New(rel, a, Options{PlanCache: 8, Engine: "sharded", EnableMutations: true})
	defer s.Wait(context.Background())

	// Method discipline: a GET must not mutate.
	res, _ := get(t, s, "/mutate?mut=flip:1:4")
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mutate status %d, want 405", res.StatusCode)
	}
	// Bad specs are 400.
	for _, bad := range []string{"", "flip:1", "frob:1:2", "flip:1:2:+", "add:1:2:?"} {
		if res, body := post(t, s, "/mutate?mut="+bad); res.StatusCode != http.StatusBadRequest {
			t.Fatalf("mut=%q status %d (%s), want 400", bad, res.StatusCode, body)
		}
	}
	// Structure conflicts are 409: the edge set has no {0,3}.
	if res, body := post(t, s, "/mutate?mut=remove:0:3"); res.StatusCode != http.StatusConflict {
		t.Fatalf("removing a missing edge: status %d (%s), want 409", res.StatusCode, body)
	}
	// Failed mutations must not move the epoch.
	if e := rel.Epoch(); e != 0 {
		t.Fatalf("epoch %d after rejected mutations, want 0", e)
	}

	// A real mutation: flip the negative chord, answer the new epoch.
	res, body := post(t, s, "/mutate?mut=flip:1:4")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("flip status %d: %s", res.StatusCode, body)
	}
	mr := decodeMutate(t, body)
	if mr.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", mr.Epoch)
	}
	if mr.DirtyShards == 0 {
		t.Fatal("flipping the chord must dirty at least one shard")
	}

	// Post-mutation solves must match a fresh build of the mutated graph.
	res, body = get(t, s, "/form?task=A,B,C")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/form status %d: %s", res.StatusCode, body)
	}
	got := decodeTeam(t, body)
	fresh := mustNewRelation(compat.NNE, rel.Graph(), compat.Options{})
	want, err := formOnce(fresh, a, mustTask(t, a, "A", "B", "C"), team.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || got.Cost != want.Cost || len(got.Members) != len(want.Members) {
		t.Fatalf("post-mutation /form = %+v, fresh build wants cost %d members %v",
			got, want.Cost, want.Members)
	}

	// /stats surfaces the mutation counters and the latency histogram.
	res, body = get(t, s, "/stats")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", res.StatusCode)
	}
	var st statsPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad stats JSON: %v", err)
	}
	if st.Mutation == nil || st.Mutation.Epoch != 1 || st.Mutation.Mutations != 1 {
		t.Fatalf("stats mutation section = %+v, want epoch 1 / 1 mutation", st.Mutation)
	}
	if st.Latency == nil || st.Latency.Count == 0 {
		t.Fatalf("stats latency section = %+v, want recorded solves", st.Latency)
	}
}

// TestMutateGating: /mutate is absent without EnableMutations.
func TestMutateGating(t *testing.T) {
	g, a := fixtureGraph(t)
	s := New(matrixRel(t, g), a, Options{Engine: "matrix"})
	defer s.Wait(context.Background())
	if res, _ := post(t, s, "/mutate?mut=flip:1:4"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("mutations disabled: status %d, want 404", res.StatusCode)
	}
}

// TestConcurrentMutateAndFormHTTP races /mutate flips against /form
// and /stats traffic through a real httptest server. Every response
// must be well-formed, and the final epoch must equal the number of
// accepted mutations. Run under -race in CI.
func TestConcurrentMutateAndFormHTTP(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := mustSharded(t, compat.NNE, g, compat.ShardedOptions{ShardRows: 1})
	defer rel.Close()
	s := New(rel, a, Options{PlanCache: 8, Engine: "sharded", EnableMutations: true, Queue: 64})
	defer s.Wait(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const flips = 30
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			res, err := http.Post(srv.URL+"/mutate?mut=flip:1:4", "", nil)
			if err != nil {
				errc <- err
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("mutate status %d", res.StatusCode)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{"/form?task=A,B,C", "/form?task=A,C", "/stats"}
			for i := 0; i < 40; i++ {
				res, err := http.Get(srv.URL + paths[(i+r)%len(paths)])
				if err != nil {
					errc <- err
					return
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("read status %d on %s", res.StatusCode, paths[(i+r)%len(paths)])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if e := rel.Epoch(); e != flips {
		t.Fatalf("final epoch = %d, want %d", e, flips)
	}
	// Flip count is even-odd: 30 flips returns the chord to negative,
	// so the engine must agree with the original fresh build.
	fresh := mustNewRelation(compat.NNE, g, compat.Options{})
	for u := int32(0); u < 5; u++ {
		for v := int32(0); v < 5; v++ {
			want, err1 := fresh.Compatible(sgNode(u), sgNode(v))
			got, err2 := rel.Compatible(sgNode(u), sgNode(v))
			if err1 != nil || err2 != nil || want != got {
				t.Fatalf("Compatible(%d,%d): fresh (%v,%v) engine (%v,%v)", u, v, want, err1, got, err2)
			}
		}
	}
}

// TestStatsSectionKeys pins the /stats "sharded" and "mutation"
// sections: their exact key sets, in order, and the mutation counters
// both carry after one flip. External readers (the benchmark harness
// among them) decode these keys by name.
func TestStatsSectionKeys(t *testing.T) {
	g, a := fixtureGraph(t)
	rel := mustSharded(t, compat.NNE, g, compat.ShardedOptions{ShardRows: 2})
	defer rel.Close()
	s := New(rel, a, Options{PlanCache: 8, Engine: "sharded", EnableMutations: true})
	defer s.Wait(context.Background())
	get(t, s, "/form?task=A,B,C")
	if res, body := post(t, s, "/mutate?mut=flip:1:4"); res.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", res.StatusCode, body)
	}
	get(t, s, "/form?task=A,B,C")

	_, body := get(t, s, "/stats")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad stats JSON %s: %v", body, err)
	}
	mutKeys := []string{"Epoch", "Mutations", "StaleShards", "ShardRebuilds"}
	for _, sec := range []struct {
		name string
		keys []string
	}{
		{"mutation", mutKeys},
		{"sharded", append([]string{"NumShards", "ShardRows", "ResidentShards", "MaxResidentShards", "SpillLoads"}, mutKeys...)},
	} {
		raw, ok := doc[sec.name]
		if !ok {
			t.Fatalf("stats lacks %q: %s", sec.name, body)
		}
		if got := objectKeys(t, raw); !slices.Equal(got, sec.keys) {
			t.Errorf("%s keys %v, want %v", sec.name, got, sec.keys)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if len(m) != len(sec.keys) || m["Epoch"] != 1.0 || m["Mutations"] != 1.0 {
			t.Errorf("%s section %v, want %d keys at epoch 1 after 1 mutation", sec.name, m, len(sec.keys))
		}
	}
}

// objectKeys returns a JSON object's keys in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
