package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"msrp"
	"msrp/internal/rp"
)

// FuzzQueryBody posts arbitrary bytes to /v1/query on a small tracked
// oracle with a small body cap and a small path-vertex budget. The
// body is untrusted input, so whatever it holds the handler must not
// panic and must answer 200, 400, 413, 429 or 504, and 504 only for a
// declared budget in (0, 60 s) — nothing on this graph takes a minute.
// When the batch is answered, each query gets one answer, and every
// length, noPath and error agrees with Oracle.QueryBatch on the same
// queries. Every returned path must pass rp.CheckReplacementPath, and
// the granted paths must be a prefix of the requested ones within the
// budget.
func FuzzQueryBody(f *testing.F) {
	g := msrp.GenerateRandomConnected(7, 60, 160)
	sources := []int{0, 15, 30, 45}
	opts := msrp.DefaultOptions()
	opts.SampleBoost = 8
	opts.Parallelism = 1
	opts.TrackPaths = true
	oracle, err := msrp.NewOracle(g, sources, opts)
	if err != nil {
		f.Fatal(err)
	}
	const maxBody, maxPathVerts = 1024, 24
	srv := New(oracle, Config{MaxBodyBytes: maxBody, MaxPathVertices: maxPathVerts})
	ig := g.Internal()

	// The bodies of the endpoint tests and the CI smoke.
	for _, body := range []string{
		`{"queries":[{"source":0,"target":50,"u":0,"v":1}]}`,
		`{"queries":[{"source":0,"target":1,"u":0,"v":1,"paths":true}]}`,
		`{"queries":[{"source":199,"target":0,"u":0,"v":1}]}`,
		`{"queries":[{"source":59,"target":0,"u":0,"v":1}]}`,
		`{"queries":[{"source":0,"target":1048576,"u":0,"v":1,"paths":true},{"source":0,"target":-7,"u":0,"v":1}]}`,
		`{"queries":[]}`,
		`{}`,
		`{not json`,
		`{"queries":[` + strings.Repeat(`{"source":0,"target":1,"u":0,"v":1},`, 100) + `{"source":0,"target":1,"u":0,"v":1}]}`,
		`{"queries":[{"source":0,"target":100,"u":0,"v":1}],"deadlineMillis":2}`,
		`{"queries":[{"source":0,"target":100,"u":0,"v":1}],"deadlineMillis":60000}`,
		// Out-of-range deadlines and ids.
		`{"queries":[{"source":0,"target":1,"u":0,"v":1}],"deadlineMillis":9223372036854775807}`,
		`{"queries":[{"source":0,"target":1,"u":0,"v":1}],"deadlineMillis":-1}`,
		`{"queries":[{"source":-1,"target":-1,"u":-1,"v":2147483648}]}`,
		`{"queries":[{"source":9223372036854775807,"target":0,"u":60,"v":1}]}`,
	} {
		f.Add([]byte(body))
	}
	// One valid query per source, with and without paths, as the
	// endpoint tests build them.
	var valid []QueryItem
	for _, s := range sources {
		res := oracle.Result(s)
		for target := 0; target < g.NumVertices(); target++ {
			if path := res.PathTo(target); len(path) >= 3 {
				valid = append(valid, QueryItem{Source: s, Target: target, U: int(path[1]), V: int(path[2]), Paths: s%2 == 0})
				break
			}
		}
	}
	for _, req := range []QueryRequest{{Queries: valid}, {Queries: valid, DeadlineMillis: 1}} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))

		// The handler decodes one JSON value from at most maxBody bytes.
		var req QueryRequest
		decoded := json.NewDecoder(bytes.NewReader(body[:min(len(body), maxBody)])).Decode(&req) == nil
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		case http.StatusGatewayTimeout:
			if !decoded || req.DeadlineMillis <= 0 || req.DeadlineMillis >= 60_000 {
				t.Fatalf("504 for deadlineMillis %d (decoded %v)", req.DeadlineMillis, decoded)
			}
		default:
			t.Fatalf("status %d (body %s)", rec.Code, rec.Body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d: response is not JSON: %v (%s)", rec.Code, err, rec.Body)
		}
		if rec.Code == http.StatusOK && len(resp.Answers) == 0 {
			t.Fatalf("200 without answers: %s", rec.Body)
		}
		if len(resp.Answers) == 0 {
			return
		}
		if !decoded || len(resp.Answers) != len(req.Queries) {
			t.Fatalf("%d answers for %d queries (decoded %v)", len(resp.Answers), len(req.Queries), decoded)
		}

		queries := make([]msrp.Query, len(req.Queries))
		for i, q := range req.Queries {
			queries[i] = msrp.Query{Source: q.Source, Target: q.Target, U: q.U, V: q.V, Paths: q.Paths}
		}
		want := oracle.QueryBatch(queries)
		budget, refused := maxPathVerts, false
		for i, a := range resp.Answers {
			q, w := req.Queries[i], want[i]
			at := fmt.Sprintf("query %d %+v", i, q)
			switch {
			case w.Err != nil:
				if a.Error == "" {
					t.Fatalf("%s: answered %+v, oracle says %v", at, a, w.Err)
				}
				continue
			case a.Error != "":
				t.Fatalf("%s: error %q, oracle answers %d", at, a.Error, w.Length)
			case w.Length == msrp.NoPath:
				if !a.NoPath || a.Path != nil {
					t.Fatalf("%s: answered %+v, oracle says noPath", at, a)
				}
				continue
			case a.NoPath || a.Length != w.Length:
				t.Fatalf("%s: answered %+v, oracle says %d", at, a, w.Length)
			}
			if !q.Paths {
				if a.Path != nil || a.PathError != "" {
					t.Fatalf("%s: path fields on a lengths-only query: %+v", at, a)
				}
				continue
			}
			if a.Path == nil {
				if a.PathError == "" {
					t.Fatalf("%s: requested path neither granted nor refused", at)
				}
				refused = true
				continue
			}
			if refused {
				t.Fatalf("%s: path granted after an earlier one was refused", at)
			}
			if budget -= len(a.Path); budget < 0 {
				t.Fatalf("%s: granted paths exceed the %d-vertex budget", at, maxPathVerts)
			}
			e, _ := ig.EdgeID(q.U, q.V)
			if err := rp.CheckReplacementPath(ig, a.Path, int32(q.Source), int32(q.Target), e, a.Length); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
	})
}
