package load

import (
	"encoding/json"
	"fmt"
	"os"

	"msrp/internal/bench"
)

// Tolerance is the band a fresh run may move within before Compare
// calls it a regression. Load numbers on shared CI hosts are noisy and
// the micro plan's waves are short, so the defaults are deliberately
// wide: the gate exists to catch the 5× cliff a bad refactor causes,
// not 10% jitter.
type Tolerance struct {
	// LatencyFactor bounds each latency percentile: fresh must be at
	// most base*LatencyFactor + LatencyFloorMillis.
	LatencyFactor float64
	// LatencyFloorMillis absorbs absolute noise on tiny baselines (a
	// 0.4ms p50 doubling is scheduler jitter, not a regression).
	LatencyFloorMillis float64
	// RejectionBand bounds the 429 rate as an absolute delta: a wave
	// designed to saturate must keep rejecting, one designed to fit
	// must keep fitting.
	RejectionBand float64
	// WarmFactor and WarmFloorMillis band the run-level warm-up wall
	// clock (Result.WarmMillis) the same way LatencyFactor bands the
	// per-wave percentiles. The warm-up runs the full §8 batch
	// pipeline, so this is the committed record's guard on the solve
	// itself: a refactor that slows the solve shows up here even when
	// the serving waves (all cache hits) stay fast. Zero WarmFactor
	// disables the check, as does a baseline without a warm-up phase.
	WarmFactor      float64
	WarmFloorMillis float64
}

// DefaultTolerance is the band the CI gate runs with.
func DefaultTolerance() Tolerance {
	return Tolerance{
		LatencyFactor: 3, LatencyFloorMillis: 100, RejectionBand: 0.2,
		WarmFactor: 3, WarmFloorMillis: 500,
	}
}

// LoadBaseline reads a committed BENCH_*.json envelope and decodes its
// Data payload back into a load Result.
func LoadBaseline(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env struct {
		bench.Envelope
		Data Result `json:"data"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("load: parse baseline %s: %w", path, err)
	}
	if len(env.Data.Waves) == 0 {
		return nil, fmt.Errorf("load: baseline %s has no waves", path)
	}
	return &env.Data, nil
}

// Compare diffs a fresh run against a committed baseline, wave by wave
// (matched by name), and returns the violations — empty means the run
// is inside the tolerance band. Waves present only in the fresh run
// are ignored (a grown plan is not a regression); waves missing from
// the fresh run are violations (the scenario shrank).
func Compare(fresh, base *Result, tol Tolerance) []string {
	var violations []string
	if tol.WarmFactor > 0 && base.WarmMillis > 0 {
		if bound := base.WarmMillis*tol.WarmFactor + tol.WarmFloorMillis; fresh.WarmMillis > bound {
			violations = append(violations, fmt.Sprintf(
				"warm-up %.0fms exceeds %.0fms (baseline %.0fms × %.1f + %.0fms)",
				fresh.WarmMillis, bound, base.WarmMillis, tol.WarmFactor, tol.WarmFloorMillis))
		}
	}
	freshByName := make(map[string]*WaveResult, len(fresh.Waves))
	for i := range fresh.Waves {
		freshByName[fresh.Waves[i].Name] = &fresh.Waves[i]
	}
	for i := range base.Waves {
		bw := &base.Waves[i]
		fw, ok := freshByName[bw.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("wave %q: in baseline but not in this run", bw.Name))
			continue
		}
		checkLat := func(metric string, freshV, baseV float64) {
			if bound := baseV*tol.LatencyFactor + tol.LatencyFloorMillis; freshV > bound {
				violations = append(violations, fmt.Sprintf(
					"wave %q: %s %.2fms exceeds %.2fms (baseline %.2fms × %.1f + %.0fms)",
					bw.Name, metric, freshV, bound, baseV, tol.LatencyFactor, tol.LatencyFloorMillis))
			}
		}
		checkLat("p50", fw.Latency.P50, bw.Latency.P50)
		checkLat("p95", fw.Latency.P95, bw.Latency.P95)
		checkLat("p99", fw.Latency.P99, bw.Latency.P99)
		if d := fw.RejectionRate - bw.RejectionRate; d > tol.RejectionBand || d < -tol.RejectionBand {
			violations = append(violations, fmt.Sprintf(
				"wave %q: rejection rate %.1f%% is outside ±%.0f%% of baseline %.1f%%",
				bw.Name, 100*fw.RejectionRate, 100*tol.RejectionBand, 100*bw.RejectionRate))
		}
		if fw.ServerErrors > 0 && bw.ServerErrors == 0 {
			violations = append(violations, fmt.Sprintf(
				"wave %q: %d server errors, baseline had none", bw.Name, fw.ServerErrors))
		}
	}
	return violations
}
