package router

// End-to-end tests of the routing tier over real msrp-serve handlers:
// every replica is a genuine server.Server over its own Oracle on the
// same graph, wrapped in a fault-injection layer that can play dead
// (connection drops, as after SIGKILL) or stall (accepts but never
// answers queries while /healthz keeps passing — the failure mode only
// per-item deadlines catch).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msrp"
	"msrp/internal/server"
)

// faulty wraps a replica handler with switchable fault injection.
type faulty struct {
	h    http.Handler
	mode atomic.Value // "" | "dead" | "stall"

	mu      sync.Mutex
	stallCh chan struct{} // closed on un-stall, releasing wedged handlers
}

func (f *faulty) set(mode string) {
	f.mu.Lock()
	if mode == "stall" {
		f.stallCh = make(chan struct{})
	} else if f.stallCh != nil {
		close(f.stallCh)
		f.stallCh = nil
	}
	f.mu.Unlock()
	f.mode.Store(mode)
}

func (f *faulty) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch f.mode.Load() {
	case "dead":
		// Sever the connection without a response — what a probe or
		// sub-batch sees after a replica crash.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic("faulty: response writer is not hijackable")
	case "stall":
		// Wedged, not dead: queries hang until the caller gives up, but
		// health checks stay green. The body must be drained or net/http
		// never notices the caller hanging up (the disconnect watch only
		// runs once the request body is consumed).
		if r.URL.Path == "/v1/query" {
			io.Copy(io.Discard, r.Body)
			f.mu.Lock()
			ch := f.stallCh
			f.mu.Unlock()
			if ch != nil {
				select {
				case <-r.Context().Done():
				case <-ch:
				}
				return
			}
		}
	}
	f.h.ServeHTTP(w, r)
}

// fleet is N real replicas plus a reference oracle for ground truth.
type fleet struct {
	ref     *msrp.Oracle
	sources []int
	faults  []*faulty
	urls    []string
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	g := msrp.GenerateRandomConnected(7, 60, 160)
	sources := []int{0, 10, 20, 30, 40, 50}
	opts := msrp.DefaultOptions()
	opts.SampleBoost = 8
	opts.Parallelism = 2
	fl := &fleet{sources: sources}
	ref, err := msrp.NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	fl.ref = ref
	for i := 0; i < n; i++ {
		oracle, err := msrp.NewOracle(g, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		f := &faulty{h: server.New(oracle, server.Config{})}
		f.set("")
		ts := httptest.NewServer(f)
		t.Cleanup(ts.Close)
		fl.faults = append(fl.faults, f)
		fl.urls = append(fl.urls, ts.URL)
	}
	return fl
}

// batch synthesizes one valid query per source (edge on the canonical
// path) with the reference oracle's answer attached.
func (fl *fleet) batch(t *testing.T) ([]server.QueryItem, []int32) {
	t.Helper()
	var items []server.QueryItem
	var want []int32
	for _, s := range fl.sources {
		res := fl.ref.Result(s)
		for tgt := 0; tgt < 60; tgt++ {
			path := res.PathTo(tgt)
			if len(path) < 2 {
				continue
			}
			it := server.QueryItem{Source: s, Target: tgt, U: int(path[0]), V: int(path[1])}
			w, err := fl.ref.Query(it.Source, it.Target, it.U, it.V)
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
			want = append(want, w)
			break
		}
	}
	if len(items) != len(fl.sources) {
		t.Fatalf("synthesized %d items, want one per source", len(items))
	}
	return items, want
}

func newTestRouter(t *testing.T, fl *fleet, tweak func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Replicas:      fl.urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  300 * time.Millisecond,
		FailAfter:     2,
		UpAfter:       2,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt
}

func postQuery(t *testing.T, rt *Router, req server.QueryRequest) (*httptest.ResponseRecorder, *server.QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, r)
	var resp server.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode query response (status %d): %v (body %s)", rec.Code, err, rec.Body)
	}
	return rec, &resp
}

func routerStats(t *testing.T, rt *Router) *StatsResponse {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitForState(t *testing.T, rt *Router, i int, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.ReplicaStates()[i] == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica %d never reached state %v (now %v)", i, want, rt.ReplicaStates()[i])
}

// TestRouterCrosscheck: answers through the router over a slice-warmed
// 3-replica fleet are bit-identical to the reference oracle, and the
// warm scatter shards the cache (each replica holds only its slice).
func TestRouterCrosscheck(t *testing.T) {
	fl := newFleet(t, 3)
	rt := newTestRouter(t, fl, nil)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/warm", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("router warm = %d, body %s", rec.Code, rec.Body)
	}
	var wresp server.WarmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &wresp); err != nil {
		t.Fatal(err)
	}
	if wresp.Warmed != len(fl.sources) {
		t.Fatalf("warmed = %d, want %d", wresp.Warmed, len(fl.sources))
	}
	// The shard property: the fleet collectively caches each source
	// exactly once (slice warms, not σ copies everywhere).
	if wresp.CachedSources != len(fl.sources) {
		t.Fatalf("fleet-wide cached = %d, want %d (one slice per replica)", wresp.CachedSources, len(fl.sources))
	}

	items, want := fl.batch(t)
	qrec, resp := postQuery(t, rt, server.QueryRequest{Queries: items})
	if qrec.Code != http.StatusOK {
		t.Fatalf("routed query = %d, body %s", qrec.Code, qrec.Body)
	}
	if len(resp.Answers) != len(items) {
		t.Fatalf("got %d answers for %d items", len(resp.Answers), len(items))
	}
	for i, a := range resp.Answers {
		if a.RouteError != "" || a.Error != "" {
			t.Fatalf("item %d failed: routeError=%q error=%q", i, a.RouteError, a.Error)
		}
		if a.Length != want[i] {
			t.Fatalf("item %d (source %d): routed answer %d != reference %d", i, items[i].Source, a.Length, want[i])
		}
	}

	st := routerStats(t, rt)
	if st.Router.Batches != 1 || st.Router.Items != int64(len(items)) {
		t.Fatalf("router counters: batches=%d items=%d", st.Router.Batches, st.Router.Items)
	}
	if st.Router.Failovers != 0 {
		t.Fatalf("healthy fleet saw %d failovers", st.Router.Failovers)
	}
	// Sub-batches: the mixed batch split across however many replicas
	// own a slice — more than one, at most the fleet.
	if st.Router.SubBatches < 2 || st.Router.SubBatches > 3 {
		t.Fatalf("subBatches = %d, want 2..3 for a 6-source batch over 3 replicas", st.Router.SubBatches)
	}
	if st.CachedSources != len(fl.sources) {
		t.Fatalf("aggregated cachedSources = %d, want %d", st.CachedSources, len(fl.sources))
	}
}

// TestRouterFailoverAndHandback kills a replica mid-sequence: its slice
// must fail over (zero 5xx, zero routeErrors — siblings rebuild the
// orphans lazily), and its rejoin must be observed as a hand-back.
func TestRouterFailoverAndHandback(t *testing.T) {
	fl := newFleet(t, 3)
	rt := newTestRouter(t, fl, nil)

	items, want := fl.batch(t)
	if rec, _ := postQuery(t, rt, server.QueryRequest{Queries: items}); rec.Code != http.StatusOK {
		t.Fatalf("pre-crash query = %d", rec.Code)
	}

	// Crash the replica that owns the most sources so the failover is
	// guaranteed to have work to do.
	owned := make([]int, 3)
	for _, s := range fl.sources {
		owned[rt.Ring().Owner(s)]++
	}
	victim := 0
	for i, c := range owned {
		if c > owned[victim] {
			victim = i
		}
	}
	if owned[victim] == 0 {
		t.Fatalf("ring gave victim no sources: %v", owned)
	}
	fl.faults[victim].set("dead")
	waitForState(t, rt, victim, StateDown)

	rec, resp := postQuery(t, rt, server.QueryRequest{Queries: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("mid-crash query = %d, want 200 (never a whole-batch 5xx), body %s", rec.Code, rec.Body)
	}
	for i, a := range resp.Answers {
		if a.RouteError != "" {
			t.Fatalf("item %d not failed over: %s", i, a.RouteError)
		}
		if a.Length != want[i] {
			t.Fatalf("item %d: failover answer %d != reference %d", i, a.Length, want[i])
		}
	}
	st := routerStats(t, rt)
	if st.Router.Failovers == 0 {
		t.Fatal("replica down but zero failovers recorded")
	}
	if st.Router.FailoverWarms == 0 {
		t.Fatal("failover should have lazily warmed orphaned sources on a sibling")
	}
	if st.Router.ReplicasUp != 2 {
		t.Fatalf("replicasUp = %d, want 2", st.Router.ReplicasUp)
	}

	// Revive: rejoin must fire a hand-back and routing must snap home.
	fl.faults[victim].set("")
	waitForState(t, rt, victim, StateUp)
	if rt.Handbacks() == 0 {
		t.Fatal("rejoin did not count as a hand-back")
	}
	rec, resp = postQuery(t, rt, server.QueryRequest{Queries: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-rejoin query = %d", rec.Code)
	}
	for i, a := range resp.Answers {
		if a.RouteError != "" || a.Length != want[i] {
			t.Fatalf("post-rejoin item %d: %+v, want length %d", i, a, want[i])
		}
	}
	st = routerStats(t, rt)
	var victimRouted int64
	for i, rs := range st.Router.Replicas {
		if i == victim {
			victimRouted = rs.RoutedItems
		}
	}
	if victimRouted == 0 {
		t.Fatal("rejoined replica served nothing; hand-back routing did not snap home")
	}
}

// TestPerItemDeadline stalls one replica (healthz green, queries hang):
// only its items blow the per-item deadline; siblings answer normally
// and the batch returns well inside the batch deadline.
func TestPerItemDeadline(t *testing.T) {
	fl := newFleet(t, 2)
	rt := newTestRouter(t, fl, func(c *Config) {
		c.ItemDeadline = 300 * time.Millisecond
		c.BatchDeadline = 10 * time.Second
		c.MaxAttempts = 3
	})

	// Pre-warm so the healthy replica's answers are cache hits, then
	// stall.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/warm", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm = %d", rec.Code)
	}
	items, want := fl.batch(t)
	byOwner := make([]int, 2)
	for _, it := range items {
		byOwner[rt.Ring().Owner(it.Source)]++
	}
	if byOwner[0] == 0 || byOwner[1] == 0 {
		t.Fatalf("sources all landed on one replica (%v); the test needs both", byOwner)
	}
	const stalled = 0
	fl.faults[stalled].set("stall")
	t.Cleanup(func() { fl.faults[stalled].set("") })

	start := time.Now()
	qrec, resp := postQuery(t, rt, server.QueryRequest{Queries: items})
	elapsed := time.Since(start)
	if qrec.Code != http.StatusOK {
		t.Fatalf("query with stalled replica = %d, want 200 with per-item verdicts, body %s", qrec.Code, qrec.Body)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("batch took %v; the per-item deadline (300ms) did not bound it", elapsed)
	}
	var failed, ok int
	for i, a := range resp.Answers {
		owner := rt.Ring().Owner(items[i].Source)
		if owner == stalled {
			// The stalled replica passes health checks, so its items had
			// no live failover target within the deadline.
			if a.RouteError == "" {
				t.Fatalf("item %d (owned by stalled replica) should carry a routeError, got %+v", i, a)
			}
			failed++
		} else {
			if a.RouteError != "" {
				t.Fatalf("item %d on the healthy replica failed: %s", i, a.RouteError)
			}
			if a.Length != want[i] {
				t.Fatalf("item %d: answer %d != reference %d", i, a.Length, want[i])
			}
			ok++
		}
	}
	if failed != byOwner[stalled] || ok != byOwner[1-stalled] {
		t.Fatalf("failed=%d ok=%d, want %d/%d", failed, ok, byOwner[stalled], byOwner[1-stalled])
	}
	st := routerStats(t, rt)
	if st.Router.RouteErrors != int64(failed) {
		t.Fatalf("routeErrors counter = %d, want %d", st.Router.RouteErrors, failed)
	}
	fl.faults[stalled].set("")
}

// TestDeadlineMillisRange: the router rejects a declared budget outside
// [0, server.MaxDeadlineMillis] with 400 before admission, as the
// replica does, instead of overflowing a huge one into a negative
// duration that fails every item at once; the largest budget is served.
func TestDeadlineMillisRange(t *testing.T) {
	fl := newFleet(t, 1)
	rt := newTestRouter(t, fl, nil)
	items, want := fl.batch(t)
	for _, tc := range []struct {
		ms   int64
		want int
	}{
		{-1, http.StatusBadRequest},
		{math.MaxInt64, http.StatusBadRequest},
		{server.MaxDeadlineMillis + 1, http.StatusBadRequest},
		{server.MaxDeadlineMillis, http.StatusOK},
	} {
		rec, resp := postQuery(t, rt, server.QueryRequest{Queries: items, DeadlineMillis: tc.ms})
		if rec.Code != tc.want {
			t.Fatalf("deadlineMillis %d = %d, want %d (body %s)", tc.ms, rec.Code, tc.want, rec.Body)
		}
		if tc.want != http.StatusOK {
			continue
		}
		for i, a := range resp.Answers {
			if a.RouteError != "" || a.Error != "" || a.Length != want[i] {
				t.Fatalf("deadlineMillis %d: item %d = %+v, want length %d", tc.ms, i, a, want[i])
			}
		}
	}
	if st := routerStats(t, rt); st.Router.Batches != 1 {
		t.Fatalf("router admitted %d batches, want only the valid one", st.Router.Batches)
	}
}

// TestRetryAfterAggregation: when every replica rejects, the router
// surfaces one 429 whose Retry-After is the max hint — the client must
// outwait the slowest replica, never the sum.
func TestRetryAfterAggregation(t *testing.T) {
	hints := []string{"2", "7"}
	var urls []string
	for _, h := range hints {
		h := h
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprintln(w, "ok")
				return
			}
			w.Header().Set("Retry-After", h)
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"no capacity"}`)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := New(Config{
		Replicas:      urls,
		MaxAttempts:   1, // terminal rejection, no backoff sleeps
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)

	// Enough sources that both replicas certainly own some.
	var queries []server.QueryItem
	for s := 0; s < 16; s++ {
		queries = append(queries, server.QueryItem{Source: s, Target: 1, U: 0, V: 1})
	}
	seen := make(map[int]bool)
	for _, q := range queries {
		seen[rt.Ring().Owner(q.Source)] = true
	}
	if len(seen) != 2 {
		t.Fatalf("queries landed on %d replicas, need both", len(seen))
	}

	rec, resp := postQuery(t, rt, server.QueryRequest{Queries: queries})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("all-rejected batch = %d, want 429, body %s", rec.Code, rec.Body)
	}
	got := rec.Header().Get("Retry-After")
	if got != "7" {
		t.Fatalf("aggregated Retry-After = %q, want the max hint \"7\" (summing would give 9)", got)
	}
	if secs, err := strconv.Atoi(got); err != nil || secs > 7 {
		t.Fatalf("Retry-After %q not a sane aggregate", got)
	}
	for i, a := range resp.Answers {
		if a.RouteError == "" {
			t.Fatalf("item %d lacks a routeError in an all-rejected batch", i)
		}
	}
}

// TestDerivedRetryAfterPropagatesE2E saturates a real replica
// (MaxInFlight 1, no pinned Retry-After, so the 429 carries
// server.DeriveRetryAfter's measured-latency hint) and checks the
// router surfaces the replica's own derived hint, sane and in range.
func TestDerivedRetryAfterPropagatesE2E(t *testing.T) {
	g := msrp.GenerateRandomConnected(13, 2000, 8000)
	var sources []int
	for s := 0; s < 2000; s += 250 {
		sources = append(sources, s)
	}
	opts := msrp.DefaultOptions()
	opts.Parallelism = 2
	opts.MaxCachedSources = 1 // every fresh source is a slow rebuild
	oracle, err := msrp.NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(oracle, server.Config{MaxInFlight: 1}))
	t.Cleanup(ts.Close)

	rt, err := New(Config{
		Replicas:      []string{ts.URL},
		MaxAttempts:   1, // terminal rejection: surface the hint, don't outwait it
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)

	client := ts.Client()
	for attempt := 0; attempt < len(sources)-1; attempt++ {
		// Occupy the replica's only admission slot with a fresh-source
		// build sent directly, then route a batch while it computes.
		occupier := sources[attempt]
		done := make(chan struct{})
		go func() {
			defer close(done)
			body, _ := json.Marshal(server.QueryRequest{
				Queries: []server.QueryItem{{Source: occupier, Target: 1, U: 0, V: 1}},
			})
			resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		time.Sleep(5 * time.Millisecond)
		rec, _ := postQuery(t, rt, server.QueryRequest{
			Queries: []server.QueryItem{{Source: sources[attempt+1], Target: 1, U: 0, V: 1}},
		})
		<-done
		if rec.Code != http.StatusTooManyRequests {
			continue // lost the race with the occupier; try the next source
		}
		h := rec.Header().Get("Retry-After")
		secs, err := strconv.Atoi(h)
		if err != nil {
			t.Fatalf("routed 429 Retry-After %q is not an integer", h)
		}
		// DeriveRetryAfter clamps to [1s, 30s]; the router must pass the
		// replica's hint through, not invent or inflate one.
		if secs < 1 || secs > 30 {
			t.Fatalf("propagated Retry-After = %ds, outside the replica's derived range [1,30]", secs)
		}
		return
	}
	t.Fatal("never observed a replica 429; the occupier kept losing the admission race")
}

// TestRouterNeverWholeBatch5xxOnPartialFailure: a batch mixing a
// healthy slice with a dead replica's slice comes back 200 — the dead
// slice fails over instead of failing the batch.
func TestRouterPartialDeadIsStill200(t *testing.T) {
	fl := newFleet(t, 3)
	rt := newTestRouter(t, fl, func(c *Config) {
		// No probes have run failure rounds yet: the dead replica still
		// looks up, so the data path discovers the crash itself.
		c.FailAfter = 1000
	})
	items, want := fl.batch(t)
	fl.faults[1].set("dead")

	rec, resp := postQuery(t, rt, server.QueryRequest{Queries: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d, want 200 via data-path failover, body %s", rec.Code, rec.Body)
	}
	for i, a := range resp.Answers {
		if a.RouteError != "" {
			t.Fatalf("item %d: %s", i, a.RouteError)
		}
		if a.Length != want[i] {
			t.Fatalf("item %d: %d != %d", i, a.Length, want[i])
		}
	}
}
