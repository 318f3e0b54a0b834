// FuzzServeQuery: arbitrary query strings at the HTTP boundary.

package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/compat"
)

// FuzzServeQuery sends one query string to GET /form, POST /mutate,
// GET /form again and GET /formtopk, on a fresh server over a small
// sharded engine with mutations enabled. Every answer must carry one of
// the statuses the endpoints document (200, 400, 409, 429, 503, 504)
// and a valid JSON body; a panic anywhere fails the input.
func FuzzServeQuery(f *testing.F) {
	for _, tc := range malformedQueries {
		_, q, _ := strings.Cut(tc.path, "?")
		f.Add(q)
	}
	for _, q := range []string{"mut=flip:1:4", "mut=add:0:4:-", "mut=remove:0:1", "mut=add:0:1", "mut=flip:0:9",
		"task=A,B,C&mut=remove:1:2&k=3&lambda=0.5", "task=B,C&include=1,4&exclude=2&maxteam=2&mut=flip:1:4"} {
		f.Add(q)
	}
	g, a := fixtureGraph(f)
	f.Fuzz(func(t *testing.T, query string) {
		rel := mustSharded(t, compat.NNE, g, compat.ShardedOptions{ShardRows: 2})
		defer rel.Close()
		s := New(rel, a, Options{PlanCache: 8, Engine: "sharded", EnableMutations: true})
		defer s.Wait(context.Background())
		for _, ep := range []struct{ method, path string }{
			{"GET", "/form"}, {"POST", "/mutate"}, {"GET", "/form"}, {"GET", "/formtopk"},
		} {
			req := httptest.NewRequest(ep.method, ep.path, nil)
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			switch rec.Code {
			case 200, 400, 409, 429, 503, 504:
			default:
				t.Fatalf("%s %s?%s: status %d, body %s", ep.method, ep.path, query, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s?%s: invalid JSON body %q", ep.method, ep.path, query, rec.Body)
			}
		}
	})
}
