package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// repeatMetric is one end-to-end metric over the runs of one workload.
type repeatMetric struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	// Spread is the distance between the first and third quartile as a
	// share of the median: the quantity the acceptance rule bounds.
	Spread        float64 `json:"spread"`
	SpreadByBound float64 `json:"spread_by_bound"`
}

type repeatReport struct {
	Runs      int                                `json:"runs"`
	FirstSeed int64                              `json:"first_seed"`
	Seconds   float64                            `json:"seconds"`
	Workloads map[string]map[string]repeatMetric `json:"workloads"`
	// Reports holds every child's report file, slices included, so that
	// another statistic can be tried on the same runs after the fact.
	Reports map[string][]json.RawMessage `json:"reports"`
}

// runChildren runs every named workload in a fresh child process, max(1,
// -repeat) times with consecutive seeds, passes the children's reports
// through, and for -repeat prints and writes each end-to-end metric's
// min/median/max and spread. One database process at a time: the children
// run one after another.
func runChildren(names []string, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	runs := max(1, o.repeat)
	rep := repeatReport{Runs: runs, FirstSeed: o.seed, Seconds: o.seconds, Workloads: map[string]map[string]repeatMetric{},
		Reports: map[string][]json.RawMessage{}}
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-out", o.outDir}
			if o.quick {
				args = append(args, "-quick")
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", name, o.seed+int64(i), err)
				status = 1
				continue
			}
			line, err := lastResultLine(&buf)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", name, o.seed+int64(i), err)
				status = 1
				continue
			}
			for k, m := range line.Metrics {
				values[k] = append(values[k], m.Value)
			}
			if data, err := os.ReadFile(filepath.Join(o.outDir, name+".json")); err == nil {
				rep.Reports[name] = append(rep.Reports[name], data)
			}
		}
		if o.repeat > 0 && o.trace == 0 && name != "probes" {
			rep.Workloads[name] = summarize(values)
		}
	}
	if len(rep.Workloads) == 0 {
		return status
	}
	for _, name := range names {
		for _, m := range endToEnd {
			rm, ok := rep.Workloads[name][m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "repeat %-15s %-20s min %14.4f median %14.4f max %14.4f %-5s spread %6.2f%% = %4.2f of bound %.0f%%\n",
				name, m.Name, rm.Min, rm.Median, rm.Max, m.Unit, rm.Spread*100, rm.SpreadByBound, m.Bound*100)
		}
	}
	if err := writeJSONFile(filepath.Join(o.outDir, "repeat.json"), rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return status
}

// lastResultLine parses the last line of a child's standard output.
func lastResultLine(out *bytes.Buffer) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	if !line.Correct {
		return line, fmt.Errorf("result line says correct=false")
	}
	return line, nil
}

func summarize(values map[string][]float64) map[string]repeatMetric {
	out := map[string]repeatMetric{}
	for _, m := range endToEnd {
		v := values[m.Name]
		if len(v) == 0 {
			continue
		}
		q1, med, q3 := quartiles(v)
		rm := repeatMetric{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: v,
			Min: slices.Min(v), Median: med, Max: slices.Max(v), Spread: ratio(q3-q1, med)}
		rm.SpreadByBound = rm.Spread / m.Bound
		out[m.Name] = rm
	}
	return out
}
