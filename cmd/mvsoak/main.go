// Command mvsoak is the seeded soak runner: randomized multi-table bank
// workloads with cross-table constraints, optional crash/fault injection,
// and full history validation, on any or all of the three engines.
//
//	mvsoak -engine all -duration 60s -workers 4 -faults
//
// Every run prints its base seed up front. On a violation it prints the
// violating episode's seed and the exact one-episode repro command, and
// exits non-zero. Runs are bounded by -episodes or -duration (whichever is
// set; -duration splits evenly across engines with -engine all). With
// -workers 1 a run is fully deterministic given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/soak"
)

func main() {
	var (
		engine   = flag.String("engine", "all", "engine: mvo, mvl, 1v, or all")
		seed     = flag.Int64("seed", 0, "base seed (0 = derive from current time)")
		duration = flag.Duration("duration", 0, "wall-clock budget (split across engines with -engine all)")
		episodes = flag.Int("episodes", 0, "episode budget per engine (default 4 when -duration is unset)")
		first    = flag.Int("first-episode", 0, "first episode number (replay one episode of a longer run)")
		workers  = flag.Int("workers", 4, "concurrent transaction streams (1 = fully deterministic)")
		txns     = flag.Int("txns", 150, "transactions per worker per episode")
		accounts = flag.Uint64("accounts", 48, "bank accounts (2..65536)")
		faults   = flag.Bool("faults", false, "crash odd episodes at seeded fault points and recover")
		dir      = flag.String("dir", "", "scratch directory for faulted episodes (default: system temp)")
		quiet    = flag.Bool("q", false, "suppress per-episode progress lines")
	)
	flag.Parse()

	engines := map[string]core.Scheme{
		"mvo": core.MVOptimistic,
		"mvl": core.MVPessimistic,
		"1v":  core.SingleVersion,
	}
	var schemes []core.Scheme
	if *engine == "all" {
		schemes = []core.Scheme{core.MVOptimistic, core.MVPessimistic, core.SingleVersion}
	} else {
		s, ok := engines[*engine]
		if !ok {
			fmt.Fprintf(os.Stderr, "mvsoak: unknown engine %q (want mvo, mvl, 1v or all)\n", *engine)
			os.Exit(2)
		}
		schemes = []core.Scheme{s}
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	perEngine := *duration
	if perEngine > 0 && len(schemes) > 1 {
		perEngine = *duration / time.Duration(len(schemes))
	}
	fmt.Printf("mvsoak: seed=%d workers=%d txns=%d accounts=%d faults=%v GOMAXPROCS=%d\n",
		*seed, *workers, *txns, *accounts, *faults, runtime.GOMAXPROCS(0))

	exit := 0
	for _, scheme := range schemes {
		cfg := soak.Config{
			Scheme:        scheme,
			Seed:          *seed,
			Workers:       *workers,
			Episodes:      *episodes,
			Duration:      perEngine,
			FirstEpisode:  *first,
			TxnsPerWorker: *txns,
			Accounts:      *accounts,
			Faults:        *faults,
			Dir:           *dir,
		}
		if !*quiet {
			cfg.Log = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
		}
		res, err := soak.Run(cfg)
		fmt.Printf("mvsoak: engine=%s episodes=%d commits=%d aborts=%d unrun=%d hash=%016x\n",
			soak.EngineFlag(scheme), res.Episodes, res.Commits, res.Aborts, res.Unrun, res.Hash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvsoak: FAIL (seed %d): %v\n", *seed, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
