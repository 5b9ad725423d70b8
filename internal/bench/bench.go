// Package bench is the experiment harness that regenerates every
// "table and figure" of the reproduction (the paper is pure theory, so
// each experiment measures the empirical counterpart of a theorem or
// lemma; All maps each experiment id to its claim, and EXPERIMENTS.md
// holds recorded runs).
//
// Each experiment is a function that runs a workload sweep and prints
// an aligned table plus a machine-readable CSV block. The cmd/msrp-bench
// tool invokes them by id; bench_test.go exposes the hot loops to
// `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table accumulates rows and prints them with aligned columns plus a
// trailing CSV block (prefixed "csv," for trivial grepping).
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", x)
		case time.Duration:
			row[i] = formatDuration(x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.rows = append(t.rows, row)
}

// Print writes the aligned table and CSV block to w.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	printRow(rule)
	for _, row := range t.rows {
		printRow(row)
	}
	// CSV block.
	fmt.Fprintf(w, "  csv,%s\n", strings.Join(t.Columns, ","))
	for _, row := range t.rows {
		fmt.Fprintf(w, "  csv,%s\n", strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// timed runs fn once and returns the wall-clock duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Config selects experiment sizes.
type Config struct {
	// Quick shrinks every sweep to test-suite sizes (seconds, not
	// minutes). The full sizes are used by cmd/msrp-bench.
	Quick bool
}

// Experiment is a runnable experiment, listed with its claim by All.
type Experiment struct {
	ID    string
	Name  string
	Claim string
	Run   func(w io.Writer, cfg Config) error
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", "SSRP scaling", "Theorem 14: Õ(m√n + n²) vs Õ(mn) baselines", RunE1},
		{"E2", "MSRP σ-scaling", "Theorem 1: Õ(m√(nσ) + σn²); beats σ independent SSRP runs", RunE2},
		{"E3", "Landmark set sizes", "Lemma 4: |L_k| = Õ(√(nσ)/2^k)", RunE3},
		{"E4", "Exactness at paper constants", "Lemmas 9/12/13: failure probability ≤ 1/n", RunE4},
		{"E5", "Exactness across families (boosted)", "end-to-end correctness vs brute force", RunE5},
		{"E6", "BMM reduction", "Theorem 28: C=A×B via √(n/σ) MSRP calls", RunE6},
		{"E7", "Scaling-trick ablation", "§3: leveled L_k vs flat landmark scans", RunE7},
		{"E8", "Crossover map", "fastest algorithm per (n, σ)", RunE8},
		{"E9", "Auxiliary graph sizes", "§7.1/§8 graph size formulas", RunE9},
		{"E11", "Preserver sizes", "fault-tolerant BFS subgraph vs the Parter–Peleg n^1.5 bound", RunE11},
		{"E12", "Engine parallel scaling", "σ-source solve and batched Oracle vs Parallelism (near-linear to GOMAXPROCS)", RunE12},
		{"E13", "Seed-table shard scaling", "sharded §8.2.1 build and one-item atomic-counter scheduling on a skewed σ-source family", RunE13},
		{"E15", "Provenance plane overhead", "TrackPaths at σ=16: bit-identical lengths, retained ProvenanceBytes vs the transient PeakSeedPathBytes", RunE15},
	}
}
