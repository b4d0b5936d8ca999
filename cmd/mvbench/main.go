// Command mvbench regenerates the evaluation of "High-Performance
// Concurrency Control Mechanisms for Main-Memory Databases" (Larson et al.,
// VLDB 2011): Figures 4-9 and Tables 3-4, comparing single-version locking
// (1V), multiversion locking (MV/L) and multiversion optimistic (MV/O).
//
// Usage:
//
//	mvbench [flags]
//	  -experiment string   fig4|fig5|table3|fig6|fig7|fig8|fig9|table4|range|all (default "all")
//	  -nlarge int          rows standing in for the paper's 10M-row table (default 200000)
//	  -nsmall int          hotspot table rows (default 1000, as in the paper)
//	  -subscribers int     TATP population (default 100000; the paper used 20M)
//	  -mpl int             maximum multiprogramming level (default 24, as in the paper)
//	  -duration duration   measured interval per point (default 400ms)
//	  -warmup duration     unmeasured warmup per point (default 100ms)
//	  -seed int            workload seed (default 1)
//	  -nolog               disable the asynchronous group-commit redo log
//
// Absolute numbers depend on the host; the paper's testbed was a 2-socket
// 12-core Nehalem. The relative behaviour of the three schemes — who wins
// under which workload, and where the crossovers fall — is the result.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment to run: fig4|fig5|table3|fig6|fig7|fig8|fig9|table4|range|all")
		nLarge      = flag.Int("nlarge", 200_000, "rows standing in for the paper's 10M-row table")
		nSmall      = flag.Int("nsmall", 1_000, "hotspot table rows")
		subscribers = flag.Int("subscribers", 100_000, "TATP population")
		mpl         = flag.Int("mpl", 24, "maximum multiprogramming level")
		duration    = flag.Duration("duration", 400*time.Millisecond, "measured interval per point")
		warmup      = flag.Duration("warmup", 100*time.Millisecond, "warmup per point")
		seed        = flag.Int64("seed", 1, "workload seed")
		noLog       = flag.Bool("nolog", false, "disable the redo log")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.NLarge = uint64(*nLarge)
	cfg.NSmall = uint64(*nSmall)
	cfg.TATPSubscribers = uint64(*subscribers)
	cfg.MaxMPL = *mpl
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Logging = !*noLog
	var mpls []int
	for _, m := range cfg.MPLs {
		if m <= *mpl {
			mpls = append(mpls, m)
		}
	}
	cfg.MPLs = mpls

	start := time.Now() // ByID runs the experiments
	reports, err := cfg.ByID(strings.ToLower(*experiment))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		if _, err := r.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("\n(total runtime %v)\n", time.Since(start).Round(time.Millisecond))
}
