package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer. Spans of one request (a solve,
// a replayed batch, a lazy build) share Req; Parent is the id of the
// span that caused this one, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory, from one goroutine, and writes them
// out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing.
func (tr *tracer) begin(name string, parent int, req int64) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(tr.t0)})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	if tr != nil {
		tr.spans[id-1].End = time.Since(tr.t0)
	}
}

// timed runs fn inside a span and returns its duration (0 untraced).
func (tr *tracer) timed(name string, parent int, req int64, fn func()) time.Duration {
	id := tr.begin(name, parent, req)
	fn()
	if tr == nil {
		return 0
	}
	tr.end(id)
	return tr.spans[id-1].dur()
}

// self returns every span's self time: its duration minus the part its
// children cover. Children run one after another, never in parallel, so
// the part they cover is the sum of their durations. The serving
// replays (serve.go) run a batch again at each boundary rather than
// inside the parent's interval; they are charged the same way, which
// makes a layer's self time the difference between two boundaries.
func (tr *tracer) self() []time.Duration {
	out := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		out[i] += s.dur()
		if s.Parent > 0 {
			out[s.Parent-1] -= s.dur()
		}
	}
	return out
}

// selfByName collects the self times of every span with the given name.
func (tr *tracer) selfByName(name string) []float64 {
	self := tr.self()
	var out []float64
	for i, s := range tr.spans {
		if s.Name == name {
			out = append(out, self[i].Seconds())
		}
	}
	return out
}

// durByName collects the durations of every span with the given name.
func (tr *tracer) durByName(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

type spanSummary struct {
	Count        int     `json:"count"`
	MedianMs     float64 `json:"medianMs"`
	MedianSelfMs float64 `json:"medianSelfMs"`
}

type traceRecord struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	GoVersion  string                 `json:"goVersion"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"numCPU"`
	Par        int                    `json:"parallelism"`
	Clients    int                    `json:"clients"`
	Metrics    map[string]metricValue `json:"metrics"`
	Summary    map[string]spanSummary `json:"summary"`
	Spans      []span                 `json:"spans"`
}

// write stores the spans, a per-name summary and the run's metrics
// under .bench_build/trace/ and returns the file's path.
func (tr *tracer) write(cfg config, metrics map[string]metricValue) (string, error) {
	rec := traceRecord{
		Workload: cfg.workload, Seed: cfg.seed, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Par: cfg.par, Clients: cfg.clients,
		Metrics: metrics, Summary: make(map[string]spanSummary), Spans: tr.spans,
	}
	names := make(map[string]bool)
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	for n := range names {
		d, s := tr.durByName(n), tr.selfByName(n)
		rec.Summary[n] = spanSummary{Count: len(d), MedianMs: 1000 * median(d), MedianSelfMs: 1000 * median(s)}
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
