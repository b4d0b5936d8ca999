// Command benchmark is the repository's benchmark: one command per workload
// that loads the database under each of the three concurrency-control
// schemes in turn, measures it, checks its outputs and prints every metric
// by name. README.md describes the protocol; BENCHMARK.json at the root of
// the repository declares the workloads and metrics this program emits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// defaultSeconds is the measured time of one run, all three schemes
	// together; BENCHMARK.json's run_seconds is the same number.
	defaultSeconds = 15
	warmupLen      = 500 * time.Millisecond
	quickSlices    = 5
	quickWarmup    = 100 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	outDir   string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name, a comma-separated list, \"all\" or \"probes\"")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated traffic and data")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds of one run, split evenly over the three schemes")
	fs.IntVar(&o.trace, "trace", 0, "1: trace half of the slices, run the layer probes, print the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: small tables, 5 slices; output is not comparable")
	fs.IntVar(&o.repeat, "repeat", 0, "run the selected workloads this many times in child processes and print the spread")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace, report and scratch files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload == "" {
		return o, fmt.Errorf("-workload is required: one of %s, all, probes", strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// configFor turns the options into one workload's run configuration.
func configFor(wl *workloadDef, o options) runConfig {
	cfg := runConfig{
		wl: wl, seed: o.seed, rows: wl.rows, slice: sliceLen, warmup: warmupLen, trace: o.trace == 1,
		slices:  max(2, int(math.Round(o.seconds/float64(len(schemes))/sliceLen.Seconds()))),
		workers: min(2, runtime.NumCPU()),
		outDir:  o.outDir,
	}
	if o.quick {
		cfg.rows, cfg.slices, cfg.warmup = wl.quickRows, quickSlices, quickWarmup
	}
	return cfg
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := strings.Split(o.workload, ",")
	if o.workload == "all" {
		names = workloadNames()
	}
	if o.repeat > 0 || len(names) > 1 {
		return runChildren(names, o, stdout, stderr)
	}
	if o.workload == "probes" {
		return runProbesOnly(o, stdout, stderr)
	}
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s, all, probes)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	cfg := configFor(wl, o)
	if cfg.trace {
		cfg.traceOut = &traceFile{Workload: wl.name, Seed: o.seed,
			Note: fmt.Sprintf("one transaction in %d is traced; the first %d traced transactions per worker and scheme are kept; times are ns since the scheme run began", sampleEvery, traceFileTx)}
	}
	res := runWorkload(cfg, !o.quick)
	var probeValues map[string]float64
	if cfg.trace {
		if probeValues, err = runProbes(o.outDir); err != nil {
			res.errors = append(res.errors, fmt.Sprintf("probes: %v", err))
		}
		if err := cfg.traceOut.write(filepath.Join(o.outDir, wl.name+".trace.json")); err != nil {
			res.errors = append(res.errors, fmt.Sprintf("trace file: %v", err))
		}
	}
	if err := res.print(stdout, probeValues); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(res.errors) > 0 {
		return 1
	}
	return 0
}

// runProbesOnly is -workload probes: the layer probes alone.
func runProbesOnly(o options, stdout, stderr io.Writer) int {
	values, err := runProbes(o.outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: probes:", err)
		return 1
	}
	line := resultLine{Correct: true, Attempted: uint64(len(probes)), Metrics: map[string]metricValue{}}
	for _, p := range probes {
		printMetric(stdout, "layer", p, values[p.Name])
		line.Metrics[p.Name] = metricValue{values[p.Name], p.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
