package server

// Tests for the replica-side hooks the routing tier (internal/router)
// depends on: /v1/sources introspection, slice warms, the per-batch
// deadline (deadlineMillis → 504), and the routeError wire field.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"msrp"
)

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", path, err, rec.Body)
		}
	}
	return rec.Code
}

func TestSourcesEndpointReflectsCache(t *testing.T) {
	srv, _, sources := newTestServer(t, Config{})

	var before SourcesResponse
	if code := getJSON(t, srv, "/v1/sources", &before); code != http.StatusOK {
		t.Fatalf("GET /v1/sources = %d", code)
	}
	if len(before.Sources) != len(sources) {
		t.Fatalf("sources = %v, want %v", before.Sources, sources)
	}
	if len(before.Cached) != 0 {
		t.Fatalf("cached before any build = %v, want empty", before.Cached)
	}
	if before.MaxCachedSources != 2 {
		t.Fatalf("maxCachedSources = %d, want 2", before.MaxCachedSources)
	}

	// A slice warm must show up as exactly that slice, in ascending
	// order (the oracle's LRU bound here is 2, so warm exactly 2).
	slice := []int{sources[2], sources[0]}
	rec := postJSON(t, srv, "/v1/warm", WarmRequest{Sources: slice})
	if rec.Code != http.StatusOK {
		t.Fatalf("slice warm = %d, body %s", rec.Code, rec.Body)
	}
	var wresp WarmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wresp); err != nil {
		t.Fatal(err)
	}
	if wresp.Warmed != 2 || wresp.CachedSources != 2 {
		t.Fatalf("warm response = %+v, want warmed=2 cached=2", wresp)
	}

	var after SourcesResponse
	getJSON(t, srv, "/v1/sources", &after)
	if len(after.Cached) != 2 || after.Cached[0] != sources[0] || after.Cached[1] != sources[2] {
		t.Fatalf("cached after slice warm = %v, want [%d %d]", after.Cached, sources[0], sources[2])
	}
}

func TestWarmSliceRejectsNonSourceAndUnknownFields(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})

	rec := postJSON(t, srv, "/v1/warm", WarmRequest{Sources: []int{59}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("warm of non-source = %d, want 400 (body %s)", rec.Code, rec.Body)
	}

	rec = postJSON(t, srv, "/v1/warm", map[string]any{"sourcez": []int{0}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("warm with unknown field = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

func TestWarmSliceAnswersMatchLazy(t *testing.T) {
	// Two oracles over the same graph: one slice-warmed through the
	// endpoint, one left to build lazily. Answers must be bit-identical
	// (the slice warm uses the same per-source build path).
	g := msrp.GenerateRandomConnected(7, 60, 160)
	sources := []int{0, 15, 30, 45}
	opts := msrp.DefaultOptions()
	opts.SampleBoost = 8
	opts.Parallelism = 2
	warmed, err := msrp.NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := msrp.NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(warmed, Config{})
	if rec := postJSON(t, srv, "/v1/warm", WarmRequest{Sources: sources}); rec.Code != http.StatusOK {
		t.Fatalf("slice warm = %d", rec.Code)
	}
	items := validQueries(t, lazy, sources)
	rec := postJSON(t, srv, "/v1/query", QueryRequest{Queries: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d, body %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		want, err := lazy.Query(it.Source, it.Target, it.U, it.V)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Answers[i].Length != want {
			t.Fatalf("answer %d = %d, lazy oracle says %d", i, resp.Answers[i].Length, want)
		}
	}
}

func TestDeadlineMillisEnforced(t *testing.T) {
	// A graph big enough that one per-source build takes well over the
	// declared 2ms budget: the handler must answer 504, the replica's
	// own verdict that it abandoned the batch.
	g := msrp.GenerateRandomConnected(11, 1200, 5000)
	opts := msrp.DefaultOptions()
	opts.Parallelism = 2
	oracle, err := msrp.NewOracle(g, []int{0, 600}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(oracle, Config{})

	rec := postJSON(t, srv, "/v1/query", QueryRequest{
		Queries:        []QueryItem{{Source: 0, Target: 100, U: 0, V: 1}},
		DeadlineMillis: 2,
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("blown deadline = %d, want 504 (body %s)", rec.Code, rec.Body)
	}

	rec = postJSON(t, srv, "/v1/query", QueryRequest{
		Queries:        []QueryItem{{Source: 0, Target: 100, U: 0, V: 1}},
		DeadlineMillis: -1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative deadline = %d, want 400", rec.Code)
	}

	// A generous budget must not get in the way; the build from the
	// abandoned batch completed and stayed cached (builds are atomic),
	// so this is a cache hit either way.
	rec = postJSON(t, srv, "/v1/query", QueryRequest{
		Queries:        []QueryItem{{Source: 0, Target: 100, U: 0, V: 1}},
		DeadlineMillis: 60_000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("generous deadline = %d, want 200 (body %s)", rec.Code, rec.Body)
	}

	// A budget past the largest duration is a 400, not an overflow into
	// a negative duration that expires at once (a 504); the largest one
	// is served.
	for _, tc := range []struct {
		ms   int64
		want int
	}{
		{math.MaxInt64, http.StatusBadRequest},
		{MaxDeadlineMillis + 1, http.StatusBadRequest},
		{MaxDeadlineMillis, http.StatusOK},
	} {
		rec = postJSON(t, srv, "/v1/query", QueryRequest{
			Queries:        []QueryItem{{Source: 0, Target: 100, U: 0, V: 1}},
			DeadlineMillis: tc.ms,
		})
		if rec.Code != tc.want {
			t.Fatalf("deadlineMillis %d = %d, want %d (body %s)", tc.ms, rec.Code, tc.want, rec.Body)
		}
	}
}
