package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tatp"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in spec.go and workloads.go")

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type jsonBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonBounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to what the program declares
// and emits; `go test -run BenchmarkJSON -update` regenerates the file.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := declared()
	if *update {
		if err := writeJSONFile(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the declarations; run go test -run BenchmarkJSON -update\n got %+v\nwant %+v", got, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

func TestNamesAndLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
}

// tinyConfig is a run small enough for a unit test: quick-size tables, two
// short slices per phase.
func tinyConfig(t *testing.T, wl *workloadDef, trace bool) runConfig {
	cfg := runConfig{
		wl: wl, seed: 7, rows: wl.quickRows, slices: 2, slice: 20 * time.Millisecond,
		warmup: 5 * time.Millisecond, trace: trace, workers: 2, outDir: t.TempDir(),
	}
	if trace {
		cfg.slices = 4
		cfg.traceOut = &traceFile{Workload: wl.name, Seed: cfg.seed}
	}
	return cfg
}

func parseResultLine(t *testing.T, out *bytes.Buffer) (resultLine, []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line, lines[:len(lines)-1]
}

// TestWorkloadsEmitEndToEnd runs every workload at tiny size and checks
// that the run is correct and that each declared end-to-end metric appears
// exactly once, with unit in the result line and direction and bound in the
// report.
func TestWorkloadsEmitEndToEnd(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res := runWorkload(tinyConfig(t, wl, false), false)
			var out bytes.Buffer
			if err := res.print(&out, nil); err != nil {
				t.Fatal(err)
			}
			line, report := parseResultLine(t, &out)
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", line.Correct, line.Attempted, line.Failed, res.errors)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line has %d metrics, want the %d end-to-end metrics", len(line.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("metric %s: in result line=%v value=%v unit=%q, want positive with unit %q", m.Name, ok, got.Value, got.Unit, m.Unit)
				}
				n := 0
				for _, l := range report {
					f := strings.Fields(l)
					if len(f) >= 5 && f[0] == "metric" && f[1] == m.Name {
						n++
						if f[3] != m.Unit || f[4] != m.Better || !strings.Contains(l, "may worsen by") {
							t.Errorf("report line lacks unit, direction or bound: %q", l)
						}
					}
				}
				if n != 1 {
					t.Errorf("metric %s printed %d times, want once", m.Name, n)
				}
			}
			if !strings.Contains(report[0], `"comparable":false`) {
				t.Errorf("a run that is not full size must be stamped comparable=false: %s", report[0])
			}
		})
	}
}

// TestTraceRun checks the traced run of the two workloads whose bodies are
// traced differently (range: cut into single calls; tatp: whole bodies): the
// result line carries every per-layer metric, the span file parses, every
// span's parent exists and encloses it, and the span kinds the workload
// exercises were measured.
func TestTraceRun(t *testing.T) {
	probeValues := map[string]float64{}
	for _, p := range probes {
		probeValues[p.Name] = 1
	}
	for _, tc := range []struct {
		workload string
		kinds    []string
		metrics  []string
	}{
		{"range", []string{"tx", "begin", "scan", "write", "commit"}, []string{"mv.mvo.scan_ns", "sv.write_ns", "mv.mvl.begin_ns"}},
		{"tatp", []string{"tx", "begin", "read", "write", "body", "commit"}, []string{"mv.mvo.read_ns", "sv.commit_ns"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := tinyConfig(t, findWorkload(tc.workload), true)
			res := runWorkload(cfg, false)
			var out bytes.Buffer
			if err := res.print(&out, probeValues); err != nil {
				t.Fatal(err)
			}
			line, _ := parseResultLine(t, &out)
			if !line.Correct {
				t.Fatalf("errors: %v", res.errors)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("result line has %d metrics, want the %d per-layer metrics", len(line.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s missing or with unit %q", m.Name, got.Unit)
				}
			}
			for _, name := range tc.metrics {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a measured time", name, line.Metrics[name].Value)
				}
			}

			path := filepath.Join(cfg.outDir, "trace.json")
			if err := cfg.traceOut.write(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			byID := map[string]fileSpan{}
			kinds := map[string]int{}
			for _, s := range tf.Spans {
				byID[s.ID] = s
				kinds[s.Name]++
			}
			if len(byID) != len(tf.Spans) || len(tf.Spans) == 0 {
				t.Fatalf("%d spans, %d distinct ids", len(tf.Spans), len(byID))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start {
					t.Errorf("span %s ends before it starts", s.ID)
				}
				if s.Name == "tx" {
					if s.Parent != "" {
						t.Errorf("tx span %s has parent %s", s.ID, s.Parent)
					}
					continue
				}
				p, ok := byID[s.Parent]
				if !ok {
					t.Fatalf("span %s: parent %q is not in the file", s.ID, s.Parent)
				}
				if p.Name != "tx" || s.Start < p.Start || s.End > p.End {
					t.Errorf("span %s [%d,%d] is not inside its parent %s %s [%d,%d]", s.ID, s.Start, s.End, p.Name, p.ID, p.Start, p.End)
				}
			}
			for _, k := range tc.kinds {
				if kinds[k] == 0 {
					t.Errorf("no %q span recorded; have %v", k, kinds)
				}
			}
		})
	}
}

func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take about two seconds")
	}
	values, err := runProbes(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if v, ok := values[p.Name]; !ok || v <= 0 && p.Name != "core.facade_ns" {
			t.Errorf("probe %s = %v (present=%v), want a positive measurement", p.Name, v, ok)
		}
	}
	if len(values) != len(probes) {
		t.Errorf("%d probe values for %d declared probes", len(values), len(probes))
	}
}

// build loads one tiny instance of a workload on one scheme.
func buildTiny(t *testing.T, name string, s schemeSpec) (*instance, buildArgs) {
	t.Helper()
	wl := findWorkload(name)
	args := buildArgs{scheme: s, rows: wl.quickRows, seed: 3, dir: t.TempDir()}
	inst, err := wl.build(args)
	if err != nil {
		t.Fatal(err)
	}
	return inst, args
}

// mutate commits one transaction that corrupts a table.
func mutate(t *testing.T, db *core.Database, fn func(tx *core.Tx) (int, error)) {
	t.Helper()
	tx := db.Begin(core.WithIsolation(core.Serializable))
	n, err := fn(tx)
	if err != nil || n != 1 {
		t.Fatalf("corrupting write: n=%d err=%v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestChecksRejectCorruption corrupts each workload's table in a way its
// traffic never would and requires the workload's check to fail, on every
// scheme. Each check must first pass on the table as loaded.
func TestChecksRejectCorruption(t *testing.T) {
	for _, s := range schemes {
		t.Run(s.Key, func(t *testing.T) {
			for _, name := range []string{"update-uniform", "range"} {
				for what, corrupt := range map[string]func(tx *core.Tx, tbl *core.Table) (int, error){
					"missing key": func(tx *core.Tx, tbl *core.Table) (int, error) {
						return tx.DeleteWhere(tbl, 0, 11, nil)
					},
					"key field differs from index key": func(tx *core.Tx, tbl *core.Table) (int, error) {
						return tx.UpdateWhere(tbl, 0, 11, nil, func([]byte) []byte { return workload.Row(12, 0) })
					},
				} {
					inst, _ := buildTiny(t, name, s)
					if err := inst.check(); err != nil {
						t.Fatalf("%s as loaded: %v", name, err)
					}
					mutate(t, inst.db, func(tx *core.Tx) (int, error) { return corrupt(tx, inst.table) })
					if err := inst.check(); err == nil {
						t.Errorf("%s: check accepted a table with %s", name, what)
					}
					if err := inst.finish(); err != nil {
						t.Fatal(err)
					}
				}
			}

			inst, _ := buildTiny(t, "tatp", s)
			if err := inst.check(); err != nil {
				t.Fatalf("tatp as loaded: %v", err)
			}
			mutate(t, inst.db, func(tx *core.Tx) (int, error) {
				return tx.DeleteWhere(inst.tatp.Subscriber, tatp.SubBySID, 5, nil)
			})
			if err := inst.check(); err == nil {
				t.Error("tatp: Validate accepted a database without subscriber 5")
			}
			if err := inst.finish(); err != nil {
				t.Fatal(err)
			}

		})
	}
}

// TestRecoveryComparisonRejectsDifference drives durable's check in its
// parts, on every scheme: a committed update must be in the recovered
// database, which must equal the dump taken before the close and must not
// equal a dump with one bit changed.
func TestRecoveryComparisonRejectsDifference(t *testing.T) {
	for _, s := range schemes {
		t.Run(s.Key, func(t *testing.T) {
			inst, args := buildTiny(t, "durable", s)
			mutate(t, inst.db, func(tx *core.Tx) (int, error) {
				return tx.UpdateWhere(inst.table, 0, 11, nil, func([]byte) []byte { return workload.Row(11, 99) })
			})
			want, err := dumpDenseKeys(inst.db, inst.table, args.rows, true)
			if err != nil {
				t.Fatal(err)
			}
			if workload.RowVal(want[11*workload.RowSize:]) != 99 {
				t.Fatal("dump does not hold the committed update")
			}
			if err := inst.db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := inst.store.Close(); err != nil {
				t.Fatal(err)
			}
			if err := compareRecovered(want, s.Scheme, args.rows, inst.storeDir); err != nil {
				t.Fatalf("true dump rejected: %v", err)
			}
			want[11*workload.RowSize+8] ^= 1
			if err := compareRecovered(want, s.Scheme, args.rows, inst.storeDir); err == nil {
				t.Error("a dump differing in row 11 was accepted")
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	for _, name := range []string{"update-uniform", "tatp"} {
		inst, _ := buildTiny(t, name, schemes[0])
		a, err := fingerprint(inst, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := fingerprint(inst, 2, 1)
		c, _ := fingerprint(inst, 2, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, fingerprints %x and %x", name, a, b)
		}
		if a[0] == c[0] || a[1] == c[1] || a[0] == a[1] {
			t.Errorf("%s: fingerprints do not separate seeds or workers: seed 1 %x, seed 2 %x", name, a, c)
		}
		if err := inst.finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
