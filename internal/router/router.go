package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"msrp/internal/server"
	"msrp/internal/xrand"
)

// Config tunes the routing tier. The zero value of every field derives
// a sensible default; only Replicas is required.
type Config struct {
	// Replicas is the boot fleet: msrp-serve base URLs, slot-identified
	// by index. Membership is dynamic after boot — POST /v1/members
	// joins, drains, and removes replicas at runtime; the boot set only
	// determines epoch 1 of the ring.
	Replicas []string

	// VNodes is the virtual nodes per replica on the hash ring (0 = 64).
	VNodes int

	// ItemDeadline is each query item's total budget from batch arrival,
	// spanning every retry and failover attempt (0 = 5s). When it
	// expires, the item fails with a routeError; its siblings are
	// untouched.
	ItemDeadline time.Duration
	// BatchDeadline bounds the whole batch (0 = 30s). Item deadlines
	// fire first by construction (ItemDeadline is clamped to it), so a
	// batch always returns inside it with per-item verdicts.
	BatchDeadline time.Duration

	// MaxAttempts bounds HTTP attempts per item across all replicas
	// (0 = 3).
	MaxAttempts int
	// RetryBase and RetryCap shape the full-jitter exponential backoff
	// between attempts: sleep ~ U(0, min(RetryCap, RetryBase·2^attempt)),
	// and at least the replica's Retry-After hint after a 429
	// (0 = 25ms / 2s).
	RetryBase time.Duration
	RetryCap  time.Duration

	// Health probing: ProbeInterval between /healthz probes per replica
	// (0 = 250ms), ProbeTimeout per probe (0 = 1s), FailAfter
	// consecutive failures demote up → down (0 = 2), UpAfter consecutive
	// successes promote back (0 = 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
	UpAfter       int

	// MaxInFlight bounds concurrently routed /v1/query batches
	// (0 = 16 × boot replicas; negative = unbounded). Excess gets 429,
	// mirroring the replica admission stance: never queued.
	MaxInFlight int
	// MaxBodyBytes caps the /v1/query request body (0 = 8 MiB,
	// negative = uncapped).
	MaxBodyBytes int64

	// WarmTimeout bounds one slice warm POST (0 = 10 min; σn² builds
	// are legitimately slow).
	WarmTimeout time.Duration

	// Client overrides the HTTP client used for sub-batches, probes, and
	// scrapes (nil = a keep-alive pooled default).
	Client *http.Client

	// Logf receives routing events (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.VNodes <= 0 {
		d.VNodes = 64
	}
	if d.ItemDeadline <= 0 {
		d.ItemDeadline = 5 * time.Second
	}
	if d.BatchDeadline <= 0 {
		d.BatchDeadline = 30 * time.Second
	}
	if d.ItemDeadline > d.BatchDeadline {
		d.ItemDeadline = d.BatchDeadline
	}
	if d.MaxAttempts <= 0 {
		d.MaxAttempts = 3
	}
	if d.RetryBase <= 0 {
		d.RetryBase = 25 * time.Millisecond
	}
	if d.RetryCap <= 0 {
		d.RetryCap = 2 * time.Second
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = 250 * time.Millisecond
	}
	if d.ProbeTimeout <= 0 {
		d.ProbeTimeout = time.Second
	}
	if d.FailAfter <= 0 {
		d.FailAfter = 2
	}
	if d.UpAfter <= 0 {
		d.UpAfter = 2
	}
	if d.MaxInFlight == 0 {
		d.MaxInFlight = 16 * len(d.Replicas)
	}
	if d.MaxBodyBytes == 0 {
		d.MaxBodyBytes = 8 << 20
	} else if d.MaxBodyBytes < 0 {
		d.MaxBodyBytes = 0
	}
	if d.WarmTimeout <= 0 {
		d.WarmTimeout = 10 * time.Minute
	}
	return d
}

// Router is the scatter-gather coordinator. Construct with New, call
// Start to launch the health loops, and Close to stop them.
type Router struct {
	cfg    Config
	ring   atomic.Pointer[Ring] // current membership epoch; swapped whole
	health *health              // owns the append-only replica table
	client *http.Client
	mux    *http.ServeMux

	// memberMu serializes membership operations: each builds the next
	// ring from the current one, so two concurrent joins would race the
	// epoch. Queries never take it — they just Load the ring pointer.
	memberMu sync.Mutex

	queries  chan struct{} // admission slots (nil = unbounded)
	draining atomic.Bool

	// Routed-traffic counters for the aggregated stats view.
	batches     atomic.Int64
	items       atomic.Int64
	subBatches  atomic.Int64
	retries     atomic.Int64 // re-dispatches past the first attempt
	failovers   atomic.Int64 // items answered by a non-owner
	routeErrors atomic.Int64 // items that failed all attempts
	rejections  atomic.Int64 // batches 429'd by router admission

	// Membership counters.
	joins           atomic.Int64 // replicas joined via /v1/members
	drains          atomic.Int64 // replicas drained via /v1/members
	removes         atomic.Int64 // replicas removed via /v1/members
	membershipWarms atomic.Int64 // sources warmed by join/drain hand-offs

	// failoverWarms counts distinct (source, replica) failover
	// placements — each is a source some non-owner replica had to warm
	// (through the oracle's lazy single-flight build) because the owner
	// was down. The e2e "failover actually re-warmed the orphans" check
	// reads this.
	failoverWarms atomic.Int64
	fwMu          sync.Mutex
	fwSeen        map[uint64]struct{}

	// σ source set, fetched lazily from the first replica that answers
	// /v1/sources (replicas are all configured with the full set).
	srcMu   sync.Mutex
	sources []int

	rngMu sync.Mutex
	rng   *xrand.RNG
}

// New builds a router over the given boot fleet. Call Start before
// serving.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: need at least one replica URL")
	}
	d := cfg.withDefaults()
	ring, err := NewRing(len(d.Replicas), d.VNodes)
	if err != nil {
		return nil, err
	}
	client := d.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	rt := &Router{
		cfg:    d,
		client: client,
		mux:    http.NewServeMux(),
		fwSeen: make(map[uint64]struct{}),
		rng:    xrand.New(uint64(time.Now().UnixNano())),
	}
	rt.ring.Store(ring)
	reps := make([]*replica, len(d.Replicas))
	for i, name := range d.Replicas {
		r := &replica{name: name}
		r.joinEpoch.Store(ring.Epoch())
		// Boot replicas warm through the fleet-level /v1/warm before
		// traffic arrives; only runtime joiners gate serving on their
		// membership warm.
		r.sliceWarmed.Store(true)
		reps[i] = r
	}
	rt.health = &health{
		replicas:  reps,
		client:    client,
		interval:  d.ProbeInterval,
		timeout:   d.ProbeTimeout,
		failAfter: d.FailAfter,
		upAfter:   d.UpAfter,
		logf:      d.Logf,
		onRejoin:  rt.handBack,
		stop:      make(chan struct{}),
	}
	if d.MaxInFlight > 0 {
		rt.queries = make(chan struct{}, d.MaxInFlight)
	}
	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/warm", rt.handleWarm)
	rt.mux.HandleFunc("GET /v1/sources", rt.handleSources)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/members", rt.handleMembersGet)
	rt.mux.HandleFunc("POST /v1/members", rt.handleMembersPost)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return rt, nil
}

// Start runs one synchronous probe round (so the first routing
// decisions see real replica states) and launches the probe loops.
func (rt *Router) Start() { rt.health.start() }

// Close stops the probe loops.
func (rt *Router) Close() { rt.health.close() }

// SetDraining flips the router's own /healthz to 503, the same
// load-balancer drain signal a replica exposes.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Ring exposes the current membership epoch's placement function (for
// tests and introspection). The snapshot is immutable; reload after a
// membership change.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// rep returns the health record for a replica slot.
func (rt *Router) rep(i int) *replica { return rt.health.rep(i) }

// ReplicaStates snapshots each replica slot's health state.
func (rt *Router) ReplicaStates() []State {
	reps := rt.health.snapshot()
	out := make([]State, len(reps))
	for i, r := range reps {
		out[i] = r.State()
	}
	return out
}

// Handbacks returns how many down→up rejoins the health loop observed.
func (rt *Router) Handbacks() int64 { return rt.health.handbacks.Load() }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// jitter draws from U(0, d) — full jitter, so retry storms decorrelate.
func (rt *Router) jitter(d time.Duration) time.Duration {
	rt.rngMu.Lock()
	f := rt.rng.Float64()
	rt.rngMu.Unlock()
	return time.Duration(f * float64(d))
}

// expBackoff is the attempt'th full-jitter exponential backoff.
func (rt *Router) expBackoff(attempt int) time.Duration {
	base := rt.cfg.RetryBase << uint(attempt)
	if base > rt.cfg.RetryCap || base <= 0 {
		base = rt.cfg.RetryCap
	}
	return rt.jitter(base)
}

// ---------------------------------------------------------------------
// Query scatter-gather.

// routeItem is one query item's routing state: its candidate walk over
// the ring and how much retry budget it has consumed.
type routeItem struct {
	idx      int // index in the original batch
	q        server.QueryItem
	cands    []int // ring candidates; cands[0] is the owner
	pos      int   // current candidate
	attempts int
}

// scatterState is the shared state of one batch's scatter.
type scatterState struct {
	wg       sync.WaitGroup
	itemCtx  context.Context // expires at batch start + ItemDeadline
	deadline time.Time       // itemCtx's deadline, for budget arithmetic

	answers  []server.AnswerItem
	rejected []bool // failure kind per failed item (true = replica 429)

	answered atomic.Int64 // items that got a replica answer
	hintSecs atomic.Int64 // max Retry-After hint observed

	badMu  sync.Mutex
	badMsg string // first replica-400 top-level error, passed through
}

func (st *scatterState) setBadRequest(msg string) {
	st.badMu.Lock()
	if st.badMsg == "" {
		st.badMsg = msg
	}
	st.badMu.Unlock()
}

// noteHint keeps the maximum Retry-After across rejected sub-batches —
// the aggregated (not summed) backoff the router advertises when the
// whole batch was rejected: the client must outwait the slowest
// replica, not the sum of all of them.
func (st *scatterState) noteHint(secs int64) {
	for {
		cur := st.hintSecs.Load()
		if secs <= cur || st.hintSecs.CompareAndSwap(cur, secs) {
			return
		}
	}
}

// fail records a terminal routeError for every item in grp.
func (st *scatterState) fail(grp []*routeItem, msg string, rejected bool) {
	for _, it := range grp {
		st.fail1(it, msg, rejected)
	}
}

func (st *scatterState) fail1(it *routeItem, msg string, rejected bool) {
	st.answers[it.idx] = server.AnswerItem{RouteError: msg}
	st.rejected[it.idx] = rejected
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	}
	var req server.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, struct {
				Error        string `json:"error"`
				MaxBodyBytes int64  `json:"maxBodyBytes"`
			}{
				Error:        fmt.Sprintf("request body exceeds the %d-byte cap; split the batch", rt.cfg.MaxBodyBytes),
				MaxBodyBytes: rt.cfg.MaxBodyBytes,
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, server.QueryResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, server.QueryResponse{Error: `empty batch: "queries" must contain at least one item`})
		return
	}
	deadline, err := req.Deadline()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, server.QueryResponse{Error: err.Error()})
		return
	}
	release, ok := rt.acquire()
	if !ok {
		rt.rejections.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": "router capacity exhausted; retry later",
		})
		return
	}
	defer release()
	rt.batches.Add(1)
	rt.items.Add(int64(len(req.Queries)))

	// Pin this batch to the membership epoch current at arrival: every
	// candidate walk below routes on the same immutable snapshot, so a
	// concurrent join or drain (which swaps the pointer to the next
	// epoch) cannot send any of this batch's items to a replica that
	// was not warm under the epoch the batch started on.
	ring := rt.ring.Load()

	// Deadline hierarchy: the client's declared budget (if any) caps the
	// batch deadline; the per-item deadline is clamped inside the batch;
	// each sub-batch attempt carries the remaining item budget down to
	// the replica as its own compute deadline.
	start := time.Now()
	batchBudget := rt.cfg.BatchDeadline
	if deadline > 0 && deadline < batchBudget {
		batchBudget = deadline
	}
	itemBudget := rt.cfg.ItemDeadline
	if itemBudget > batchBudget {
		itemBudget = batchBudget
	}
	batchCtx, cancelBatch := context.WithDeadline(r.Context(), start.Add(batchBudget))
	defer cancelBatch()
	itemCtx, cancelItem := context.WithDeadline(batchCtx, start.Add(itemBudget))
	defer cancelItem()

	st := &scatterState{
		itemCtx:  itemCtx,
		deadline: start.Add(itemBudget),
		answers:  make([]server.AnswerItem, len(req.Queries)),
		rejected: make([]bool, len(req.Queries)),
	}

	// Group items by their first live candidate and scatter.
	groups := make(map[int][]*routeItem)
	for i, q := range req.Queries {
		it := &routeItem{idx: i, q: q, cands: ring.Candidates(q.Source)}
		if !rt.seekLive(it) {
			st.fail1(it, "no live replica for this source's hash range", false)
			continue
		}
		groups[it.cands[it.pos]] = append(groups[it.cands[it.pos]], it)
	}
	for rep, grp := range groups {
		st.wg.Add(1)
		go rt.dispatch(st, rep, grp)
	}
	st.wg.Wait()

	// The client vanishing is the only whole-batch failure left: there
	// is nobody to read a partial result.
	if r.Context().Err() != nil {
		writeJSON(w, http.StatusServiceUnavailable, server.QueryResponse{Error: "batch cancelled: " + r.Context().Err().Error()})
		return
	}

	failed, allRejected := 0, true
	for i := range st.answers {
		if st.answers[i].RouteError != "" {
			failed++
			if !st.rejected[i] {
				allRejected = false
			}
		}
	}
	rt.routeErrors.Add(int64(failed))

	// Every item was turned away by replica admission control and
	// nothing was answered: surface it as the 429 it is, with the
	// aggregated Retry-After (the max hint — outwait the slowest
	// replica, never the sum).
	if failed == len(st.answers) && allRejected && st.answered.Load() == 0 {
		hint := st.hintSecs.Load()
		if hint < 1 {
			hint = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(hint, 10))
		writeJSON(w, http.StatusTooManyRequests, server.QueryResponse{
			Answers: st.answers,
			Error:   "all replicas rejected the batch; retry later",
		})
		return
	}

	status := http.StatusOK
	resp := server.QueryResponse{Answers: st.answers}
	st.badMu.Lock()
	if st.badMsg != "" {
		// Mirror a single replica's contract: a malformed item (unknown
		// source, paths from an untracked fleet) makes the batch a 400
		// with per-item detail.
		status = http.StatusBadRequest
		resp.Error = st.badMsg
	}
	st.badMu.Unlock()
	writeJSON(w, status, resp)
}

func (rt *Router) acquire() (func(), bool) {
	if rt.queries == nil {
		return func() {}, true
	}
	select {
	case rt.queries <- struct{}{}:
		return func() { <-rt.queries }, true
	default:
		return nil, false
	}
}

// seekLive advances it.pos to the first routable candidate at or after
// the current position. Draining, down, and removed replicas are
// skipped (a batch pinned to an old epoch may still walk candidates
// that have since left the fleet).
func (rt *Router) seekLive(it *routeItem) bool {
	for ; it.pos < len(it.cands); it.pos++ {
		r := rt.rep(it.cands[it.pos])
		if !r.removed.Load() && r.State() == StateUp {
			return true
		}
	}
	return false
}

// subResult is one sub-batch attempt's outcome.
type subResult int

const (
	subOK       subResult = iota // got answers (status 200 or passthrough 400)
	subRejected                  // replica 429
	subFailed                    // transport error, 5xx, or malformed reply
)

// dispatch drives one sub-batch group against replica rep until every
// item is answered or terminally failed. Failing items re-route to
// their next ring candidate; the group forks when items' failover
// targets diverge.
func (rt *Router) dispatch(st *scatterState, rep int, grp []*routeItem) {
	defer st.wg.Done()
	for {
		if st.itemCtx.Err() != nil {
			st.fail(grp, "per-item deadline exceeded", false)
			return
		}
		res, parsed, status, hint := rt.sendSubBatch(st, rep, grp)
		for _, it := range grp {
			it.attempts++
		}
		switch res {
		case subOK:
			rr := rt.rep(rep)
			for k, it := range grp {
				st.answers[it.idx] = parsed.Answers[k]
				st.answered.Add(1)
				rr.routedItems.Add(1)
				if owner := it.cands[0]; owner != rep {
					rt.failovers.Add(1)
					rr.failedOverItems.Add(1)
					rt.noteFailoverWarm(it.q.Source, rep)
				}
			}
			if status == http.StatusBadRequest && parsed.Error != "" {
				st.setBadRequest(parsed.Error)
			}
			return

		case subRejected:
			st.noteHint(hint)
			if grp[0].attempts >= rt.cfg.MaxAttempts {
				st.fail(grp, fmt.Sprintf("rejected by replica admission control; retry after %ds", hint), true)
				return
			}
			// Obey the hint, decorrelate with full jitter, and never
			// sleep past the item budget — a backoff that cannot fit is
			// a terminal rejection now, not a deadline miss later.
			backoff := rt.expBackoff(grp[0].attempts)
			if h := time.Duration(hint) * time.Second; h > backoff {
				backoff = h
			}
			if time.Now().Add(backoff).After(st.deadline) {
				st.fail(grp, fmt.Sprintf("rejected by replica admission control; retry after %ds", hint), true)
				return
			}
			rt.retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-st.itemCtx.Done():
				st.fail(grp, "per-item deadline exceeded", false)
				return
			}
			// Retry the same replica: its admission slot will free; a
			// reroute would force another replica to rebuild the slice.
			continue

		case subFailed:
			rt.health.markFailure(rep, false)
			if st.itemCtx.Err() != nil {
				st.fail(grp, "per-item deadline exceeded", false)
				return
			}
			regroup := make(map[int][]*routeItem)
			for _, it := range grp {
				if it.attempts >= rt.cfg.MaxAttempts {
					st.fail1(it, fmt.Sprintf("no answer after %d attempts", it.attempts), false)
					continue
				}
				it.pos++
				if !rt.seekLive(it) {
					st.fail1(it, "no live replica for this source's hash range", false)
					continue
				}
				regroup[it.cands[it.pos]] = append(regroup[it.cands[it.pos]], it)
			}
			if len(regroup) == 0 {
				return
			}
			rt.retries.Add(int64(len(regroup)))
			// Tail-call the common single-target case; fork otherwise.
			if len(regroup) == 1 {
				for rep2, g2 := range regroup {
					rep, grp = rep2, g2
				}
				continue
			}
			first := true
			for rep2, g2 := range regroup {
				if first {
					rep, grp = rep2, g2
					first = false
					continue
				}
				st.wg.Add(1)
				go rt.dispatch(st, rep2, g2)
			}
			continue
		}
	}
}

// sendSubBatch posts one sub-batch to rep with the remaining item
// budget declared as the replica-side deadline.
func (rt *Router) sendSubBatch(st *scatterState, rep int, grp []*routeItem) (subResult, *server.QueryResponse, int, int64) {
	rt.subBatches.Add(1)
	queries := make([]server.QueryItem, len(grp))
	for k, it := range grp {
		queries[k] = it.q
	}
	remaining := time.Until(st.deadline)
	if remaining <= 0 {
		return subFailed, nil, 0, 0
	}
	deadlineMillis := int64(remaining / time.Millisecond)
	if deadlineMillis < 1 {
		deadlineMillis = 1
	}
	body, err := json.Marshal(server.QueryRequest{Queries: queries, DeadlineMillis: deadlineMillis})
	if err != nil {
		panic("router: marshal sub-batch: " + err.Error()) // wire-shaped data; cannot fail
	}
	req, err := http.NewRequestWithContext(st.itemCtx, http.MethodPost,
		rt.rep(rep).name+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return subFailed, nil, 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return subFailed, nil, 0, 0
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusBadRequest:
		var parsed server.QueryResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&parsed); err != nil {
			return subFailed, nil, 0, 0
		}
		if len(parsed.Answers) != len(grp) {
			return subFailed, nil, 0, 0
		}
		return subOK, &parsed, resp.StatusCode, 0
	case resp.StatusCode == http.StatusTooManyRequests:
		var hint int64 = 1
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.ParseInt(s, 10, 64); err == nil && secs >= 0 {
				hint = secs
			}
		}
		return subRejected, nil, 0, hint
	default:
		return subFailed, nil, 0, 0
	}
}

// noteFailoverWarm counts the first time each (source, replica)
// failover placement is served — the moment the non-owner replica has
// lazily warmed an orphaned source.
func (rt *Router) noteFailoverWarm(source, rep int) {
	key := uint64(int64(source))<<16 | uint64(rep)
	rt.fwMu.Lock()
	if _, ok := rt.fwSeen[key]; !ok {
		rt.fwSeen[key] = struct{}{}
		rt.failoverWarms.Add(1)
	}
	rt.fwMu.Unlock()
}

// ---------------------------------------------------------------------
// Warm scatter, hand-back, sources.

// sourceSet returns the fleet's σ source ids, fetching them from the
// first replica that answers /v1/sources (every replica is configured
// with the full set; only the cache slices differ).
func (rt *Router) sourceSet(ctx context.Context) ([]int, error) {
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	if rt.sources != nil {
		return rt.sources, nil
	}
	var lastErr error = errors.New("router: no replica answered /v1/sources")
	for i, rep := range rt.health.snapshot() {
		if rep.removed.Load() || rep.State() != StateUp {
			continue
		}
		var sr server.SourcesResponse
		if err := rt.getJSON(ctx, rep.name+"/v1/sources", &sr); err != nil {
			lastErr = err
			continue
		}
		if len(sr.Sources) == 0 {
			lastErr = fmt.Errorf("router: replica %d reports no sources", i)
			continue
		}
		rt.sources = sr.Sources
		return rt.sources, nil
	}
	return nil, lastErr
}

// handBack is the down→up rejoin hook: re-warm the rejoined replica's
// hash slice in the background so queries routing home again hit a warm
// cache instead of σ/N rebuilds.
func (rt *Router) handBack(i int) {
	go func() {
		ring := rt.ring.Load()
		if !ring.Contains(i) {
			// A joiner flapping during its membership warm, or a slot
			// already drained out: no slice to hand back.
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.WarmTimeout)
		defer cancel()
		sources, err := rt.sourceSet(ctx)
		if err != nil {
			rt.logf("hand-back warm for replica %d: %v", i, err)
			return
		}
		slice := ring.Owned(sources, i)
		if len(slice) == 0 {
			return
		}
		if err := rt.postWarm(ctx, rt.rep(i).name, slice); err != nil {
			rt.logf("hand-back warm for replica %d (%d sources): %v", i, len(slice), err)
			return
		}
		rt.logf("hand-back: replica %d re-warmed its %d-source slice", i, len(slice))
	}()
}

func (rt *Router) postWarm(ctx context.Context, base string, slice []int) error {
	body, _ := json.Marshal(server.WarmRequest{Sources: slice})
	wctx, cancel := context.WithTimeout(ctx, rt.cfg.WarmTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(wctx, http.MethodPost, base+"/v1/warm", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("warm %s: status %d: %s", base, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

func (rt *Router) getJSON(ctx context.Context, url string, out any) error {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// handleWarm scatters slice warms: each live replica pre-builds exactly
// the sources it owns (never all σ — that is the point of the shard).
// Slices whose owner is unroutable are warmed on the failover candidate
// that will actually serve them.
func (rt *Router) handleWarm(w http.ResponseWriter, r *http.Request) {
	sources, err := rt.sourceSet(r.Context())
	if err != nil {
		writeJSON(w, http.StatusBadGateway, server.WarmResponse{Error: err.Error()})
		return
	}
	ring := rt.ring.Load()

	// Group every source by the replica that currently serves it.
	slices := make(map[int][]int)
	var unroutable []int
	for _, s := range sources {
		it := &routeItem{q: server.QueryItem{Source: s}, cands: ring.Candidates(s)}
		if !rt.seekLive(it) {
			unroutable = append(unroutable, s)
			continue
		}
		rep := it.cands[it.pos]
		slices[rep] = append(slices[rep], s)
	}

	type warmOut struct {
		rep int
		err error
	}
	out := make(chan warmOut, len(slices))
	for rep, slice := range slices {
		go func(rep int, slice []int) {
			out <- warmOut{rep, rt.postWarm(r.Context(), rt.rep(rep).name, slice)}
		}(rep, slice)
	}
	var errs []string
	for range slices {
		o := <-out
		if o.err != nil {
			rt.health.markFailure(o.rep, false)
			errs = append(errs, o.err.Error())
			continue
		}
		rt.rep(o.rep).sliceWarmed.Store(true)
	}
	if len(unroutable) > 0 {
		errs = append(errs, fmt.Sprintf("%d sources have no live replica", len(unroutable)))
	}

	cached, stale := rt.sumCachedSources(r.Context())
	if len(errs) > 0 {
		writeJSON(w, http.StatusBadGateway, server.WarmResponse{
			CachedSources: cached,
			StaleReplicas: stale,
			Error:         "warm incomplete: " + errs[0],
		})
		return
	}
	writeJSON(w, http.StatusOK, server.WarmResponse{
		CachedSources: cached,
		StaleReplicas: stale,
		Warmed:        len(sources),
	})
}

// sumCachedSources totals the cached-source counts of the current
// epoch's serving members. A replica that goes down mid-scrape (or was
// already down) contributes nothing to the sum and increments stale —
// a partial sum with an honest staleness count, never an error.
func (rt *Router) sumCachedSources(ctx context.Context) (total, stale int) {
	ring := rt.ring.Load()
	for _, slot := range ring.Members() {
		rep := rt.rep(slot)
		if rep.removed.Load() || rep.State() == StateDown {
			stale++
			continue
		}
		var sr server.SourcesResponse
		if err := rt.getJSON(ctx, rep.name+"/v1/sources", &sr); err != nil {
			stale++
			continue
		}
		total += len(sr.Cached)
	}
	return total, stale
}

func (rt *Router) handleSources(w http.ResponseWriter, r *http.Request) {
	sources, err := rt.sourceSet(r.Context())
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	ring := rt.ring.Load()
	cachedSet := make(map[int]struct{})
	for _, slot := range ring.Members() {
		rep := rt.rep(slot)
		if rep.removed.Load() || rep.State() == StateDown {
			continue
		}
		var sr server.SourcesResponse
		if err := rt.getJSON(ctx0(r), rep.name+"/v1/sources", &sr); err == nil {
			for _, s := range sr.Cached {
				cachedSet[s] = struct{}{}
			}
		}
	}
	cached := make([]int, 0, len(cachedSet))
	for s := range cachedSet {
		cached = append(cached, s)
	}
	sort.Ints(cached)
	writeJSON(w, http.StatusOK, server.SourcesResponse{Sources: sources, Cached: cached})
}

func ctx0(r *http.Request) context.Context { return r.Context() }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	ring := rt.ring.Load()
	up := 0
	for _, slot := range ring.Members() {
		if rt.rep(slot).State() == StateUp {
			up++
		}
	}
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live replicas")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok (%d/%d replicas up)\n", up, ring.Replicas())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
