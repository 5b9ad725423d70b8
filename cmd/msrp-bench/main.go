// Command msrp-bench runs the reproduction experiments (internal/bench's
// table, bench.All; recorded runs in EXPERIMENTS.md) and prints their
// tables.
//
// Usage:
//
//	msrp-bench                 # run every experiment at full size
//	msrp-bench -quick          # test-suite sizes (seconds each)
//	msrp-bench -experiment E3  # one experiment
//	msrp-bench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"msrp/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "msrp-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "all", "experiment id (E1..E13, E15; see -list) or 'all'")
		quick      = flag.Bool("quick", false, "shrink sweeps to test sizes")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	all := bench.All()
	if *list {
		for _, ex := range all {
			fmt.Printf("%-4s %-32s %s\n", ex.ID, ex.Name, ex.Claim)
		}
		return nil
	}
	cfg := bench.Config{Quick: *quick}
	want := strings.ToUpper(*experiment)
	ran := 0
	for _, ex := range all {
		if want != "ALL" && ex.ID != want {
			continue
		}
		fmt.Printf("\n### %s — %s\n    claim: %s\n", ex.ID, ex.Name, ex.Claim)
		start := time.Now()
		if err := ex.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		fmt.Printf("  (%s completed in %v)\n", ex.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
	}
	return nil
}
