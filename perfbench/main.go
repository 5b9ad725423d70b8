// Command perfbench is the repository's benchmark: one program that
// times the σ-source solver and the serving path built on it, checks
// every answer against brute force, and prints its metrics as one JSON
// line. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload solve --seed 300 --seconds 12 --trace 0
//
// Workloads (README.md says why each exists and which layer it
// isolates):
//
//	solve        σ-source Warm of a fresh oracle; the paper's Theorem 1 solve
//	serve-hot    HTTP batches against a warmed, tracked oracle; every lookup hits
//	serve-churn  HTTP batches against a cold, bounded oracle; lazy builds,
//	             evictions, provenance strips and rebuilds
//
// With --trace 0 the run reports the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it reports the per-layer metrics and
// writes its spans to .bench_build/trace/. Every layer is measured from
// outside, by timing calls into its public functions; the program under
// test carries no instrumentation of its own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// par is the solver's Options.Parallelism and clients the number of
	// closed-loop clients; both are one per CPU.
	par, clients int
}

type workload struct {
	// seed is the pinned workload seed used when --seed is not given.
	seed uint64
	run  func(cfg config, rep *report) error
}

var workloads = map[string]workload{
	"solve":       {seed: 300, run: runSolve},
	"serve-hot":   {seed: 300, run: runServeHot},
	"serve-churn": {seed: 200, run: runServeChurn},
}

// report collects a run's counts and metric values by name.
type report struct {
	attempted, failed int64
	values            map[string]float64
	lines             []string // human-readable notes printed before the JSON
	tracer            *tracer  // nil unless --trace 1
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op records one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
		}
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: solve, serve-hot or serve-churn")
	seed := flag.Uint64("seed", 0, "workload seed (graph and query streams); default: the workload's pinned seed")
	seconds := flag.Int("seconds", 36, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg := config{
		workload: *name,
		seed:     w.seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		par:      runtime.NumCPU(),
		clients:  runtime.NumCPU(),
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.seed = *seed
		}
	})

	rep := &report{values: make(map[string]float64)}
	if cfg.trace {
		rep.tracer = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d %s\n",
		cfg.workload, cfg.seed, *seconds, *trace, hostStamp(cfg))
	if err := w.run(cfg, rep); err != nil {
		return err
	}
	if cfg.trace {
		setHost(cfg, rep)
		rep.set("trace.spans", float64(len(rep.tracer.spans)))
	}

	res, err := assemble(spec, rep, cfg.trace)
	if err != nil {
		return err
	}
	if cfg.trace {
		path, err := rep.tracer.write(cfg, res.Metrics)
		if err != nil {
			return err
		}
		rep.note("spans written to %s", path)
	}
	for _, l := range rep.lines {
		fmt.Println("#", l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.10g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# attempted=%d failed=%d\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric names (run from the repository root): %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &spec, nil
}

// assemble turns the report into the result object: exactly the
// end-to-end metrics, or with trace exactly the per-layer ones. A value
// the run set under a name BENCHMARK.json does not declare is a bug, and
// so is a missing end-to-end value. A per-layer metric the workload does
// not exercise (the §8 stages on serve-churn, say) reads 0.
func assemble(spec *benchSpec, rep *report, trace bool) (*result, error) {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	declared := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	for n := range rep.values {
		if !declared[n] {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", n)
		}
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	var missing []string
	for _, m := range want {
		v, ok := rep.values[m.Name]
		if !ok && !trace {
			missing = append(missing, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, errors.New("no value for " + strings.Join(missing, ", "))
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

func hostStamp(cfg config) string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d NumCPU=%d parallelism=%d clients=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.par, cfg.clients)
}

func setHost(cfg config, rep *report) {
	rep.set("host.num_cpu", float64(runtime.NumCPU()))
	rep.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	rep.set("host.parallelism", float64(cfg.par))
	rep.set("host.clients", float64(cfg.clients))
}
