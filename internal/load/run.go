package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msrp/internal/bench"
	"msrp/internal/graph"
	"msrp/internal/metrics"
	"msrp/internal/router"
	"msrp/internal/server"
	"msrp/internal/xrand"
)

// Target is the endpoint a plan runs against.
type Target struct {
	// BaseURL is the msrp-serve endpoint ("http://127.0.0.1:8080").
	BaseURL string
	// Client overrides the HTTP client (nil = a keep-alive pooled
	// default sized for the plan's largest wave).
	Client *http.Client
	// Pid, when positive, is the serving process: its peak RSS is
	// sampled from /proc, and a drain wave SIGTERMs it unless DrainFn
	// is set.
	Pid int
	// DrainFn, when set, triggers the graceful drain instead of a
	// signal — the in-process hook (server.Server.SetDraining) tests
	// use.
	DrainFn func() error
	// ChaosFn applies a replica fault (kill|term|stall|resume|restart on
	// fleet index i). Required when the plan has chaos waves; wired to
	// router.Manager.Apply by cmd/msrp-load's router mode.
	ChaosFn func(op string, replica int) error
}

func (t *Target) drain() error {
	if t.DrainFn != nil {
		return t.DrainFn()
	}
	if t.Pid > 0 {
		p, err := os.FindProcess(t.Pid)
		if err != nil {
			return err
		}
		return p.Signal(syscall.SIGTERM)
	}
	return fmt.Errorf("load: drain wave needs a target pid or drain hook")
}

// Options tunes a run.
type Options struct {
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// DrainResult records the graceful-drain observation of a drain wave.
type DrainResult struct {
	// TriggeredAtMillis is the drain trigger's offset into the wave.
	TriggeredAtMillis float64 `json:"triggeredAtMillis"`
	// Healthz503Observed reports whether /healthz flipped to 503 after
	// the trigger (the load-balancer signal the drain exists for).
	Healthz503Observed bool `json:"healthz503Observed"`
	// Healthz503Millis is the trigger→first-503 latency.
	Healthz503Millis float64 `json:"healthz503Millis"`
	// CompletedAfterDrain counts 2xx answers that landed after the
	// trigger — in-flight and still-routed work completing, not being
	// dropped.
	CompletedAfterDrain int64 `json:"completedAfterDrain"`
	// ServerErrorsAfterDrain counts 5xx after the trigger (graceful
	// degradation means zero).
	ServerErrorsAfterDrain int64 `json:"serverErrorsAfterDrain"`
}

// ChaosResult records a chaos wave's fault injection timeline.
type ChaosResult struct {
	Action  string `json:"action"`
	Replica int    `json:"replica"`
	// TriggeredAtMillis is the fault's offset into the wave.
	TriggeredAtMillis float64 `json:"triggeredAtMillis"`
	// Recovered reports that the recovery op (resume/restart) was
	// applied; RecoveredAtMillis is its offset into the wave.
	Recovered         bool    `json:"recovered,omitempty"`
	RecoveredAtMillis float64 `json:"recoveredAtMillis,omitempty"`
	// Error records a failed injection (the run continues; the caller
	// decides what is fatal).
	Error string `json:"error,omitempty"`
}

// RouterWave is the router section's change across one wave
// (metrics.Delta, without the per-replica rows) plus the
// warm-before-serve check over those rows at wave end.
type RouterWave struct {
	router.RouterSection
	// WarmBeforeServeViolations counts replicas that served items without
	// their slice ever having been warmed — the invariant the membership
	// hand-off exists to keep; must stay zero.
	WarmBeforeServeViolations int `json:"warmBeforeServeViolations"`
}

// ServerStats is the run's last successful /v1/stats scrape.
type ServerStats struct {
	server.StatsResponse
	// PeakProvenanceBytes is the largest ProvenanceBytes any stats
	// scrape of this run observed — the record that the gauge stayed
	// under the plan's maxProvenanceBytes budget throughout.
	PeakProvenanceBytes int64 `json:"peakProvenanceBytes,omitempty"`
}

// WaveResult is the recorded outcome of one wave.
type WaveResult struct {
	Name           string  `json:"name"`
	Clients        int     `json:"clients"`
	Arrival        string  `json:"arrival"`
	Rate           float64 `json:"rate,omitempty"`
	DurationMillis float64 `json:"durationMillis"`

	// OfferedBatches counts batch requests actually sent (including
	// retries); OfferedQueries the individual queries inside them.
	OfferedBatches int64 `json:"offeredBatches"`
	OfferedQueries int64 `json:"offeredQueries"`
	// Completed counts 2xx batch responses; CompletedQueries their
	// individual answers.
	Completed        int64 `json:"completed"`
	CompletedQueries int64 `json:"completedQueries"`
	// Rejected counts 429s (admission control working as designed);
	// ClientErrors other 4xx; ServerErrors 5xx (must stay zero);
	// TransportErrors requests that never got an HTTP response.
	Rejected        int64 `json:"rejected"`
	ClientErrors    int64 `json:"clientErrors"`
	ServerErrors    int64 `json:"serverErrors"`
	TransportErrors int64 `json:"transportErrors"`
	// Overflowed counts poisson arrivals dropped because every client
	// slot was busy (offered load the harness itself had to shed).
	Overflowed int64 `json:"overflowed,omitempty"`

	// Retry-After obedience: Retries counts batches re-sent after
	// honoring the advertised backoff, RetryWaitMillis the total time
	// spent honoring it, RetryAfterMeanSecs the mean advertised value.
	Retries            int64   `json:"retries"`
	RetryWaitMillis    float64 `json:"retryWaitMillis"`
	RetryAfterMeanSecs float64 `json:"retryAfterMeanSecs"`

	// ThroughputRPS is completed batches per second; QueryRPS completed
	// queries per second; RejectionRate rejected over offered batches.
	ThroughputRPS float64 `json:"throughputRPS"`
	QueryRPS      float64 `json:"queryRPS"`
	RejectionRate float64 `json:"rejectionRate"`

	// Latency summarizes accepted (2xx) batch latencies only — the
	// experience of admitted traffic, which must stay bounded while
	// rejected traffic rises.
	Latency bench.LatencyMillis `json:"latency"`

	// RouteErrors counts individual items that came back with a
	// routeError (the router failed them within their budget instead of
	// 5xx-ing the batch); PartialBatches counts 2xx batches containing
	// at least one. Only populated for router plans (the response body
	// is not decoded otherwise).
	RouteErrors    int64 `json:"routeErrors,omitempty"`
	PartialBatches int64 `json:"partialBatches,omitempty"`

	// Served-path validation: every path returned to a "paths": true
	// query is machine-checked client-side against the regenerated
	// graph (a real walk in G−e from source to target of exactly
	// Length edges). PathsValidated counts paths that passed,
	// PathInvalid paths that failed (must stay zero),
	// PathBudgetErrors answers whose per-response path-vertex budget
	// ran out (pathError — length still served).
	PathsValidated   int64  `json:"pathsValidated,omitempty"`
	PathInvalid      int64  `json:"pathInvalid,omitempty"`
	PathInvalidFirst string `json:"pathInvalidFirst,omitempty"`
	PathBudgetErrors int64  `json:"pathBudgetErrors,omitempty"`

	Drain *DrainResult `json:"drain,omitempty"`
	Chaos *ChaosResult `json:"chaos,omitempty"`
	// Stats is the server's /v1/stats change across the wave
	// (metrics.Delta) with the wave's own rates; Router is set on router
	// targets.
	Stats  *server.StatsResponse `json:"stats,omitempty"`
	Router *RouterWave           `json:"router,omitempty"`
}

// Result is a full run, the Data payload of a BENCH_*.json envelope.
type Result struct {
	Plan       *Plan        `json:"plan"`
	Target     string       `json:"target"`
	StartedAt  time.Time    `json:"startedAt"`
	WarmMillis float64      `json:"warmMillis,omitempty"`
	Waves      []WaveResult `json:"waves"`
	Server     *ServerStats `json:"server,omitempty"`
	// PeakRSSBytes is the serving process's VmHWM high-water mark (0
	// when no pid was attached or /proc is unavailable).
	PeakRSSBytes int64 `json:"peakRSSBytes,omitempty"`
	// ServerErrors totals 5xx across all waves; a healthy run records 0.
	ServerErrors int64 `json:"serverErrors"`
}

// Run executes the plan against the target. The returned Result is
// complete even when the run observed failures (5xx, missing drain
// flip); the caller decides what is fatal. The error is reserved for
// the harness itself failing (bad plan graph, no sources, warm-up
// never admitted).
func Run(ctx context.Context, plan *Plan, tgt *Target, opt Options) (*Result, error) {
	gen, g, err := NewQueryGen(plan)
	if err != nil {
		return nil, err
	}
	client := tgt.Client
	if client == nil {
		maxClients := 0
		for _, w := range plan.Waves {
			if w.Clients > maxClients {
				maxClients = w.Clients
			}
		}
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxClients + 16,
			MaxIdleConnsPerHost: maxClients + 16,
		}}
	}
	r := &runner{
		plan:   plan,
		tgt:    tgt,
		gen:    gen,
		graph:  g,
		client: client,
		opt:    opt,
	}

	res := &Result{Plan: plan, Target: tgt.BaseURL, StartedAt: time.Now().UTC().Truncate(time.Millisecond)}

	// Peak-RSS sampler: poll the serving process's high-water mark for
	// the whole run (VmHWM is kernel-maintained, so sampling cadence
	// only matters for catching it before the process exits).
	var peakRSS atomic.Int64
	rssDone := make(chan struct{})
	rssStopped := make(chan struct{})
	go func() {
		defer close(rssStopped)
		for {
			if v := peakRSSBytes(tgt.Pid); v > peakRSS.Load() {
				peakRSS.Store(v)
			}
			select {
			case <-rssDone:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	defer func() {
		close(rssDone)
		<-rssStopped
		res.PeakRSSBytes = peakRSS.Load()
	}()

	// Warm-up phase: run the §8 batch pipeline once before offering
	// load, so waves measure serving, not first-touch builds.
	if plan.Warm {
		opt.logf("warm-up: POST /v1/warm")
		start := time.Now()
		if err := r.warm(ctx); err != nil {
			return nil, fmt.Errorf("load: warm-up: %w", err)
		}
		res.WarmMillis = millisOf(time.Since(start))
		opt.logf("warm-up done in %.0fms", res.WarmMillis)
	}

	var peakProv int64
	for i := range plan.Waves {
		wave := &plan.Waves[i]
		before, beforeOK := r.scrapeStats(ctx)
		if beforeOK && before.ProvenanceBytes > peakProv {
			peakProv = before.ProvenanceBytes
		}
		opt.logf("wave %q: %d clients, %s arrival, %v", wave.Name, wave.Clients, arrivalOf(wave), time.Duration(wave.Duration))
		wr, err := r.runWave(ctx, wave)
		if err != nil {
			return nil, err
		}
		if after, ok := r.scrapeStats(ctx); ok {
			if beforeOK {
				st := metrics.Delta(before.StatsResponse, after.StatsResponse)
				st.DeriveRates()
				wr.Stats = &st
				if after.Router != nil && before.Router != nil {
					wr.Router = &RouterWave{RouterSection: metrics.Delta(*before.Router, *after.Router)}
					wr.Router.Replicas = nil
					for _, rep := range after.Router.Replicas {
						if rep.RoutedItems > 0 && !rep.SliceWarmed {
							wr.Router.WarmBeforeServeViolations++
						}
					}
				}
			}
			peakProv = max(peakProv, after.ProvenanceBytes)
			res.Server = &ServerStats{StatsResponse: after.StatsResponse, PeakProvenanceBytes: peakProv}
		}
		res.ServerErrors += wr.ServerErrors
		res.Waves = append(res.Waves, *wr)
		opt.logf("wave %q: offered=%d completed=%d rejected=%d (%.1f%%) 5xx=%d p99=%.2fms",
			wave.Name, wr.OfferedBatches, wr.Completed, wr.Rejected, 100*wr.RejectionRate,
			wr.ServerErrors, wr.Latency.P99)
	}
	return res, nil
}

func arrivalOf(w *Wave) string {
	if w.Arrival == "" {
		return ArrivalClosed
	}
	return w.Arrival
}

type runner struct {
	plan   *Plan
	tgt    *Target
	gen    *QueryGen
	graph  *graph.Graph
	client *http.Client
	opt    Options
}

// warm posts /v1/warm, honoring Retry-After if another warm is in
// flight. A σn² pipeline can legitimately take minutes, so the request
// runs on a generous timeout independent of the per-query one.
func (r *runner) warm(ctx context.Context) error {
	for attempt := 0; attempt < 10; attempt++ {
		wctx, cancel := context.WithTimeout(ctx, 15*time.Minute)
		req, err := http.NewRequestWithContext(wctx, http.MethodPost, r.tgt.BaseURL+"/v1/warm", nil)
		if err != nil {
			cancel()
			return err
		}
		resp, err := r.client.Do(req)
		if err != nil {
			cancel()
			return err
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusTooManyRequests:
			backoff := retryAfterOf(resp, time.Second)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return fmt.Errorf("warm: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
	}
	return fmt.Errorf("warm: still rejected after 10 attempts")
}

func retryAfterOf(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// scrapedStats is /v1/stats as the harness reads it: a single server's
// StatsResponse, plus — when the target is a router — the "router"
// section (absent on a plain msrp-serve, so the same scrape works for
// both).
type scrapedStats struct {
	server.StatsResponse
	Router *router.RouterSection `json:"router"`
}

func (r *runner) scrapeStats(ctx context.Context) (*scrapedStats, bool) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, r.tgt.BaseURL+"/v1/stats", nil)
	if err != nil {
		return nil, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var st scrapedStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, false
	}
	return &st, true
}

// worker is one client slot's private state; merged at wave end so the
// hot path takes no locks.
type worker struct {
	stream *Stream
	sketch Sketch

	offeredBatches, offeredQueries int64
	completed, completedQueries    int64
	rejected                       int64
	clientErrors                   int64
	serverErrors                   int64
	transportErrors                int64
	retries                        int64
	retryWait                      time.Duration
	retryAfterSecs                 int64
	lastRetryAfterSecs             int64

	routeErrors    int64
	partialBatches int64

	pathsValidated   int64
	pathInvalid      int64
	pathInvalidFirst string
	pathBudgetErrors int64

	completedAfterDrain    int64
	serverErrorsAfterDrain int64
}

// waveClock shares the wave's deadline and drain instant with every
// worker.
type waveClock struct {
	deadline time.Time
	drainAt  atomic.Int64 // unixnano; 0 = not triggered
}

func (c *waveClock) afterDrain(t time.Time) bool {
	at := c.drainAt.Load()
	return at != 0 && t.UnixNano() >= at
}

func (r *runner) runWave(ctx context.Context, wave *Wave) (*WaveResult, error) {
	dur := time.Duration(wave.Duration)
	clock := &waveClock{deadline: time.Now().Add(dur)}
	wr := &WaveResult{
		Name:           wave.Name,
		Clients:        wave.Clients,
		Arrival:        arrivalOf(wave),
		Rate:           wave.Rate,
		DurationMillis: millisOf(dur),
	}

	// Mid-wave chaos: inject the fault at its trigger point, and for the
	// recoverable actions apply the recovery op after its window — all
	// inside the wave, so the wave's metrics span fault and recovery.
	var chaosTimer *time.Timer
	var chaosDone chan struct{}
	if wave.Chaos != nil {
		c := wave.Chaos
		wr.Chaos = &ChaosResult{Action: c.Action, Replica: c.Replica}
		chaosDone = make(chan struct{})
		waveStart := time.Now()
		at := c.At
		if at == 0 {
			at = 0.5
		}
		chaosTimer = time.AfterFunc(time.Duration(at*float64(dur)), func() {
			defer close(chaosDone)
			if r.tgt.ChaosFn == nil {
				wr.Chaos.Error = "no chaos hook on the target"
				r.opt.logf("wave %q: chaos %s replica %d skipped: no hook", wave.Name, c.Action, c.Replica)
				return
			}
			// stall/restart inject one op now and its recovery later;
			// kill/term are one-shot.
			injectOp := c.Action
			if c.Action == ChaosRestart {
				injectOp = ChaosKill
			}
			wr.Chaos.TriggeredAtMillis = millisOf(time.Since(waveStart))
			r.opt.logf("wave %q: chaos %s replica %d at +%.0fms", wave.Name, injectOp, c.Replica, wr.Chaos.TriggeredAtMillis)
			if err := r.tgt.ChaosFn(injectOp, c.Replica); err != nil {
				wr.Chaos.Error = err.Error()
				r.opt.logf("wave %q: chaos injection failed: %v", wave.Name, err)
				return
			}
			if rec := time.Duration(c.Recover); rec > 0 {
				time.Sleep(rec)
				recoverOp := ChaosRestart
				if c.Action == ChaosStall {
					recoverOp = "resume"
				}
				if err := r.tgt.ChaosFn(recoverOp, c.Replica); err != nil {
					wr.Chaos.Error = err.Error()
					r.opt.logf("wave %q: chaos recovery failed: %v", wave.Name, err)
					return
				}
				wr.Chaos.Recovered = true
				wr.Chaos.RecoveredAtMillis = millisOf(time.Since(waveStart))
				r.opt.logf("wave %q: chaos %s replica %d at +%.0fms", wave.Name, recoverOp, c.Replica, wr.Chaos.RecoveredAtMillis)
			}
		})
	}

	// Mid-wave drain: trigger at the midpoint, then watch /healthz for
	// the 503 flip from a poller that never counts into the traffic
	// metrics.
	var drainTimer *time.Timer
	var drainDone chan struct{}
	if wave.Drain {
		wr.Drain = &DrainResult{}
		drainDone = make(chan struct{})
		waveStart := time.Now()
		drainTimer = time.AfterFunc(dur/2, func() {
			defer close(drainDone)
			now := time.Now()
			clock.drainAt.Store(now.UnixNano())
			wr.Drain.TriggeredAtMillis = millisOf(now.Sub(waveStart))
			r.opt.logf("wave %q: triggering drain at +%.0fms", wave.Name, wr.Drain.TriggeredAtMillis)
			if err := r.tgt.drain(); err != nil {
				r.opt.logf("wave %q: drain trigger failed: %v", wave.Name, err)
				return
			}
			// Poll until the flip or the wave's end.
			for time.Now().Before(clock.deadline) {
				code, ok := r.getHealthz()
				if ok && code == http.StatusServiceUnavailable {
					wr.Drain.Healthz503Observed = true
					wr.Drain.Healthz503Millis = millisOf(time.Since(now))
					r.opt.logf("wave %q: /healthz flipped to 503 after %.0fms", wave.Name, wr.Drain.Healthz503Millis)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}

	workers := make([]*worker, wave.Clients)
	for i := range workers {
		workers[i] = &worker{stream: r.gen.Stream(r.plan.Seed, i)}
	}

	var overflowed atomic.Int64
	switch arrivalOf(wave) {
	case ArrivalClosed:
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				r.closedLoop(ctx, w, wave, clock)
			}(w)
		}
		wg.Wait()
	case ArrivalPoisson:
		// Open arrivals: a dispatcher paces exponential inter-arrival
		// gaps; each arrival grabs a free client slot or is shed
		// client-side (overflowed) — never queued, mirroring the
		// server's own never-queue admission stance.
		pool := make(chan *worker, len(workers))
		for _, w := range workers {
			pool <- w
		}
		pace := r.gen.Stream(r.plan.Seed, -1) // rng for inter-arrival gaps
		var wg sync.WaitGroup
		next := time.Now()
		for {
			now := time.Now()
			if !now.Before(clock.deadline) || ctx.Err() != nil {
				break
			}
			if now.Before(next) {
				time.Sleep(time.Until(next))
			}
			// Exponential gap at rate arrivals/sec.
			u := pace.rng.Float64()
			for u == 0 {
				u = pace.rng.Float64()
			}
			gap := time.Duration(-1e9 * math.Log(u) / wave.Rate)
			next = next.Add(gap)
			select {
			case w := <-pool:
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					r.doBatch(ctx, w, w.stream.Batch(), wave, clock)
					pool <- w
				}(w)
			default:
				overflowed.Add(1)
			}
		}
		wg.Wait() // in-flight arrivals complete past the deadline
	}
	if drainTimer != nil {
		if !drainTimer.Stop() {
			<-drainDone // fired: wait for the poller before reading wr.Drain
		}
	}
	if chaosTimer != nil {
		if !chaosTimer.Stop() {
			<-chaosDone // fired: wait for the recovery before reading wr.Chaos
		}
	}

	// Merge worker-private metrics.
	for _, w := range workers {
		wr.OfferedBatches += w.offeredBatches
		wr.OfferedQueries += w.offeredQueries
		wr.Completed += w.completed
		wr.CompletedQueries += w.completedQueries
		wr.Rejected += w.rejected
		wr.ClientErrors += w.clientErrors
		wr.ServerErrors += w.serverErrors
		wr.TransportErrors += w.transportErrors
		wr.Retries += w.retries
		wr.RetryWaitMillis += millisOf(w.retryWait)
		wr.RetryAfterMeanSecs += float64(w.retryAfterSecs)
		wr.RouteErrors += w.routeErrors
		wr.PartialBatches += w.partialBatches
		wr.PathsValidated += w.pathsValidated
		wr.PathInvalid += w.pathInvalid
		if wr.PathInvalidFirst == "" {
			wr.PathInvalidFirst = w.pathInvalidFirst
		}
		wr.PathBudgetErrors += w.pathBudgetErrors
		if wr.Drain != nil {
			wr.Drain.CompletedAfterDrain += w.completedAfterDrain
			wr.Drain.ServerErrorsAfterDrain += w.serverErrorsAfterDrain
		}
	}
	var merged Sketch
	for _, w := range workers {
		merged.Merge(&w.sketch)
	}
	wr.Latency = merged.Summary()
	wr.Overflowed = overflowed.Load()
	if wr.Rejected > 0 {
		wr.RetryAfterMeanSecs /= float64(wr.Rejected)
	} else {
		wr.RetryAfterMeanSecs = 0
	}
	secs := dur.Seconds()
	wr.ThroughputRPS = float64(wr.Completed) / secs
	wr.QueryRPS = float64(wr.CompletedQueries) / secs
	if wr.OfferedBatches > 0 {
		wr.RejectionRate = float64(wr.Rejected) / float64(wr.OfferedBatches)
	}
	return wr, ctx.Err()
}

// closedLoop drives one closed-loop client until the wave deadline:
// send, wait, repeat — honoring Retry-After on 429 (and retrying the
// same batch) unless the wave opts out.
func (r *runner) closedLoop(ctx context.Context, w *worker, wave *Wave, clock *waveClock) {
	obey := wave.Obey()
	for time.Now().Before(clock.deadline) && ctx.Err() == nil {
		req := w.stream.Batch()
		for {
			outcome := r.doBatch(ctx, w, req, wave, clock)
			if outcome != outcomeRejected || !obey {
				break
			}
			// Honor Retry-After with full jitter, then retry the same
			// batch; give up on the retry if the backoff crosses the wave
			// deadline.
			backoff := fullJitter(w.stream.rng, time.Duration(w.lastRetryAfterSecs)*time.Second)
			remain := time.Until(clock.deadline)
			if backoff > remain {
				w.retryWait += remain
				time.Sleep(remain)
				return
			}
			w.retryWait += backoff
			time.Sleep(backoff)
			w.retries++
		}
	}
}

// fullJitter spreads a Retry-After hint over U(0, hint). A closed-loop
// pool rejected en masse advertises every client the same hint; clients
// that sleep exactly that long all come back in the same instant — a
// synchronized stampede that gets re-rejected wholesale and repeats.
// The hint is the server's estimate of how long it needs, not a
// rendezvous time: drawing uniformly under it decorrelates the pool
// while keeping the mean wait at half the hint.
func fullJitter(rng *xrand.RNG, hint time.Duration) time.Duration {
	if hint <= 0 {
		return 0
	}
	return time.Duration(rng.Float64() * float64(hint))
}

type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeRejected
	outcomeClientError
	outcomeServerError
	outcomeTransportError
)

// doBatch sends one batch and records its fate on the worker.
func (r *runner) doBatch(ctx context.Context, w *worker, req server.QueryRequest, wave *Wave, clock *waveClock) outcome {
	body, err := json.Marshal(req)
	if err != nil {
		panic("load: marshal query batch: " + err.Error()) // plan-shaped data; cannot fail
	}
	w.offeredBatches++
	w.offeredQueries += int64(len(req.Queries))

	qctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(qctx, http.MethodPost, r.tgt.BaseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		w.transportErrors++
		return outcomeTransportError
	}
	httpReq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(httpReq)
	if err != nil {
		w.transportErrors++
		// After a drain closes the listener every send fails instantly;
		// don't spin the CPU on connection-refused.
		time.Sleep(20 * time.Millisecond)
		return outcomeTransportError
	}
	// The answers are read back out when the harness needs them:
	// router plans for per-item routeErrors (the router's failure
	// currency — a single server never sets them), and any batch that
	// requested paths, so each served path can be machine-validated
	// against the regenerated graph. Otherwise the decode is skipped
	// and the body discarded unread.
	wantPaths := false
	for i := range req.Queries {
		if req.Queries[i].Paths {
			wantPaths = true
			break
		}
	}
	var respBody []byte
	if (r.plan.Router != nil || wantPaths) && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		respBody, _ = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	end := time.Now()

	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		w.completed++
		w.completedQueries += int64(len(req.Queries))
		w.sketch.Add(lat)
		if clock.afterDrain(end) {
			w.completedAfterDrain++
		}
		if respBody != nil {
			var qr server.QueryResponse
			if json.Unmarshal(respBody, &qr) == nil {
				failed := int64(0)
				for _, a := range qr.Answers {
					if a.RouteError != "" {
						failed++
					}
				}
				if failed > 0 {
					w.routeErrors += failed
					w.partialBatches++
					w.completedQueries -= failed
				}
				if wantPaths {
					r.validatePaths(w, req.Queries, qr.Answers)
				}
			}
		}
		return outcomeCompleted
	case resp.StatusCode == http.StatusTooManyRequests:
		w.rejected++
		secs := int64(retryAfterOf(resp, time.Second) / time.Second)
		w.retryAfterSecs += secs
		w.lastRetryAfterSecs = secs
		return outcomeRejected
	case resp.StatusCode >= 500:
		w.serverErrors++
		if clock.afterDrain(end) {
			w.serverErrorsAfterDrain++
		}
		return outcomeServerError
	default:
		w.clientErrors++
		return outcomeClientError
	}
}

// validatePaths machine-checks every served path in a batch's answers
// against the regenerated graph and tallies the verdicts on the worker.
// Answers that carry no path by design — noPath (bridge), per-item
// error, routeError, or a pathError from the response's path-vertex
// budget — are not validation failures.
func (r *runner) validatePaths(w *worker, queries []server.QueryItem, answers []server.AnswerItem) {
	for i := range queries {
		q := &queries[i]
		if !q.Paths || i >= len(answers) {
			continue
		}
		a := &answers[i]
		switch {
		case a.RouteError != "" || a.Error != "" || a.NoPath:
		case a.PathError != "":
			w.pathBudgetErrors++
		default:
			if err := validatePath(r.graph, q, a); err != nil {
				w.pathInvalid++
				if w.pathInvalidFirst == "" {
					w.pathInvalidFirst = err.Error()
				}
			} else {
				w.pathsValidated++
			}
		}
	}
}

// validatePath checks one served path certificate: a real walk in G−e
// from source to target of exactly Length edges, never crossing the
// avoided edge.
func validatePath(g *graph.Graph, q *server.QueryItem, a *server.AnswerItem) error {
	p := a.Path
	if len(p) == 0 {
		return fmt.Errorf("source %d target %d: answer has no path", q.Source, q.Target)
	}
	if int32(len(p)-1) != a.Length {
		return fmt.Errorf("source %d target %d: path has %d edges, answer length %d", q.Source, q.Target, len(p)-1, a.Length)
	}
	if int(p[0]) != q.Source || int(p[len(p)-1]) != q.Target {
		return fmt.Errorf("path runs %d→%d, want %d→%d", p[0], p[len(p)-1], q.Source, q.Target)
	}
	for i := 0; i+1 < len(p); i++ {
		u, v := int(p[i]), int(p[i+1])
		if !g.HasEdge(u, v) {
			return fmt.Errorf("source %d target %d: step %d–%d is not an edge", q.Source, q.Target, u, v)
		}
		if (u == q.U && v == q.V) || (u == q.V && v == q.U) {
			return fmt.Errorf("source %d target %d: path crosses the avoided edge %d–%d", q.Source, q.Target, q.U, q.V)
		}
	}
	return nil
}

func (r *runner) getHealthz() (int, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.tgt.BaseURL+"/healthz", nil)
	if err != nil {
		return 0, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, true
}

// peakRSSBytes reads the process's VmHWM (peak resident set) from
// /proc; 0 when unavailable (non-linux, process gone, no pid).
func peakRSSBytes(pid int) int64 {
	if pid <= 0 {
		return 0
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
