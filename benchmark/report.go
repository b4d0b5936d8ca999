package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// faultInBytes is touched and released before the first timed set-up, so
// that the load does not pay first-touch page faults the later schemes of
// the same process would not (README.md, "Measured noise").
const faultInBytes = 768 << 20

func faultInHeap() {
	b := make([]byte, faultInBytes)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	sink += uint64(b[len(b)-1])
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload run, all three schemes.
type workloadResult struct {
	cfg         runConfig
	comparable  bool
	schemes     []*schemeResult
	fingerprint string
	errors      []string
	attempted   uint64 // transactions the clients submitted during the measured slices
	failed      uint64 // of those, the ones that never committed
	values      map[string]float64
}

// runWorkload runs the three schemes in order, one database live at a time.
func runWorkload(cfg runConfig, comparable bool) *workloadResult {
	res := &workloadResult{cfg: cfg, comparable: comparable, values: map[string]float64{}}
	if comparable {
		faultInHeap()
	}
	runtime.GC()
	for _, s := range schemes {
		sr, err := runScheme(cfg, s)
		if err != nil {
			res.errors = append(res.errors, fmt.Sprintf("%s: %v", s.Key, err))
			break
		}
		if sr.checkErr != nil {
			res.errors = append(res.errors, fmt.Sprintf("%s: correctness check: %v", s.Key, sr.checkErr))
		}
		res.schemes = append(res.schemes, sr)
		runtime.GC()
	}
	if len(res.schemes) == len(schemes) {
		res.checkFingerprints()
		res.compute()
	}
	return res
}

// checkFingerprints requires the schemes to agree on the fingerprint: the
// pass is single-threaded on identical data, so a difference means one
// engine returned different rows for the same operations.
func (r *workloadResult) checkFingerprints() {
	first := r.schemes[0].fingerprint
	for _, sr := range r.schemes[1:] {
		for w := range first {
			if sr.fingerprint[w] != first[w] {
				r.errors = append(r.errors, fmt.Sprintf("%s: fingerprint of worker %d is %016x, %s has %016x",
					sr.scheme.Key, w, sr.fingerprint[w], r.schemes[0].scheme.Key, first[w]))
			}
		}
	}
	h := uint64(0xcbf29ce484222325)
	for _, f := range first {
		rec := recorder{h: h}
		rec.note(f)
		h = rec.h
	}
	r.fingerprint = fmt.Sprintf("%016x", h)
}

// sliceStat is the q-quantile over slices of one field.
func sliceStat(slices []sliceSample, q float64, field func(sliceSample) float64) float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = field(s)
	}
	return quantile(v, q)
}

// compute derives every end-to-end and per-layer metric from the scheme
// results. Ratios are over the untraced measured slices.
func (r *workloadResult) compute() {
	v := r.values
	d := func(after, before uint64) float64 { return float64(after - before) }
	var all, mvOnly struct {
		commits, attempts, draws, physical, retired          float64
		walBytes, flushed, batches, appended, syncs, seconds float64
		gcCycles, gcCPU, totalCPU, overhead                  float64
	}
	for _, sr := range r.schemes {
		b, a, key, layer := &sr.before, &sr.after, sr.scheme.Key, sr.scheme.Layer
		commits := d(a.commits, b.commits)
		v["setup_s"] += sr.setup.Seconds()
		v[key+".tx_per_s"] = sliceStat(sr.slices, sliceQuantile, func(s sliceSample) float64 { return s.TxPerS })
		v[key+".allocs_per_tx"] = sliceStat(sr.slices, 0.5, func(s sliceSample) float64 { return s.AllocsPerTx })
		v[key+".alloc_b_per_tx"] = sliceStat(sr.slices, 0.5, func(s sliceSample) float64 { return s.AllocBPerTx })
		v["live_heap_mb"] += float64(sr.liveHeap) / 1e6
		r.attempted += a.commits - b.commits + a.failed - b.failed
		r.failed += a.failed - b.failed

		if r.cfg.trace {
			for _, sm := range spanMetrics {
				v[layer+"."+sm.suffix] = sr.spanMedian[sm.kind]
			}
			traced := sliceStat(sr.tracedSlices, sliceQuantile, func(s sliceSample) float64 { return s.TxPerS })
			all.overhead += 1 - ratio(traced, v[key+".tx_per_s"])
		}
		v[layer+".tx_p50_us"], v[layer+".tx_p99_us"] = sr.p50us, sr.p99us
		perK := func(after, before uint64) float64 { return ratio(1000*d(after, before), commits) }
		if sr.scheme.Layer == "sv" {
			v["sv.lock_timeouts_per_ktx"] = perK(a.db.LockTimeouts, b.db.LockTimeouts)
		} else {
			v[layer+".write_conflicts_per_ktx"] = perK(a.db.WriteConflicts, b.db.WriteConflicts)
			v[layer+".validation_fails_per_ktx"] = perK(a.db.ValidationFails, b.db.ValidationFails)
			v[layer+".lock_failures_per_ktx"] = perK(a.db.LockFailures, b.db.LockFailures)
			v[layer+".deadlock_victims_per_ktx"] = perK(a.db.DeadlockVictims, b.db.DeadlockVictims)
			mvOnly.commits += commits
			mvOnly.retired += d(a.db.VersionsRetired, b.db.VersionsRetired)
		}
		v["gc.reclaim_lag_versions"] += float64(sr.reclaimLag)
		v["gc.pin_overflows"] += float64(sr.pinOverflow)

		all.commits += commits
		all.attempts += d(a.attempts, b.attempts)
		all.draws += d(a.funnel.Draws, b.funnel.Draws)
		all.physical += d(a.funnel.Physical, b.funnel.Physical)
		all.walBytes += d(a.log.Bytes, b.log.Bytes)
		all.flushed += d(a.log.Flushed, b.log.Flushed)
		all.batches += d(a.log.Batches, b.log.Batches)
		all.appended += d(a.log.Appended, b.log.Appended)
		all.syncs += d(a.log.Syncs, b.log.Syncs)
		all.seconds += a.at.Sub(b.at).Seconds()
		all.gcCycles += float64(a.mem.NumGC - b.mem.NumGC)
		all.gcCPU += a.gcCPU - b.gcCPU
		all.totalCPU += a.totalCPU - b.totalCPU
	}
	v["attempts_per_tx"] = ratio(all.attempts, all.commits)
	if r.cfg.trace {
		v["benchmark.trace_overhead_frac"] = all.overhead / float64(len(r.schemes))
	}
	v["ts.draws_per_tx"] = ratio(all.draws, all.commits)
	v["ts.combine_ratio"] = ratio(all.draws, all.physical)
	v["gc.versions_retired_per_tx"] = ratio(mvOnly.retired, mvOnly.commits)
	v["wal.bytes_per_tx"] = ratio(all.walBytes, all.commits)
	v["wal.records_per_batch"] = ratio(all.flushed, all.batches)
	v["wal.commits_per_fsync"] = ratio(all.appended, all.syncs)
	v["runtime.gc_cycles"] = all.gcCycles
	v["runtime.gc_cpu_frac"] = ratio(all.gcCPU, all.totalCPU)
	v["runtime.tx_per_s_mean"] = ratio(all.commits, all.seconds)
	if r.failed > 0 {
		r.errors = append(r.errors, fmt.Sprintf("%d of %d transactions never committed", r.failed, r.attempted))
	}
}

// envLine describes the run and the machine; it heads the output and the
// report file.
type envLine struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Rows        uint64 `json:"rows"`
	Slices      int    `json:"slices_per_scheme"`
	SliceMs     int64  `json:"slice_ms"`
	Workers     int    `json:"workers"`
	Trace       bool   `json:"trace"`
	Comparable  bool   `json:"comparable"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (r *workloadResult) env() envLine {
	return envLine{
		Workload: r.cfg.wl.name, Seed: r.cfg.seed, Rows: r.cfg.rows,
		Slices: r.cfg.slices, SliceMs: r.cfg.slice.Milliseconds(), Workers: r.cfg.workers,
		Trace: r.cfg.trace, Comparable: r.comparable,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Fingerprint: r.fingerprint,
	}
}

// reportFile is benchmark/out/<workload>.json: everything one run measured,
// for reading noise after the fact.
type reportFile struct {
	Env       envLine                  `json:"env"`
	Correct   bool                     `json:"correct"`
	Errors    []string                 `json:"errors,omitempty"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	EndToEnd  map[string]float64       `json:"end_to_end"`
	PerLayer  map[string]float64       `json:"per_layer"`
	Slices    map[string][]sliceSample `json:"slices"`
	Schemes   map[string]schemeInfo    `json:"schemes"`
}

type schemeInfo struct {
	SetupS   float64 `json:"setup_s"`
	Commits  uint64  `json:"commits"`
	Attempts uint64  `json:"attempts"`
	Aborted  uint64  `json:"aborted_attempts"`
	Failed   uint64  `json:"failed"`
	GCCycles uint32  `json:"gc_cycles"`
	LiveHeap uint64  `json:"live_heap_bytes"`
}

func printMetric(w io.Writer, section string, m metricSpec, v float64) {
	if m.Bound > 0 {
		fmt.Fprintf(w, "%-6s %-36s %16.4f %-8s %-6s may worsen by %.0f%%\n", section, m.Name, v, m.Unit, m.Better, m.Bound*100)
		return
	}
	fmt.Fprintf(w, "%-6s %-36s %16.4f %-8s %s\n", section, m.Name, v, m.Unit, m.Better)
}

// print writes the human-readable report and, last, the result line. With
// trace the result line carries every per-layer metric, otherwise every
// end-to-end metric.
func (r *workloadResult) print(w io.Writer, probeValues map[string]float64) error {
	rep := reportFile{
		Env: r.env(), Correct: len(r.errors) == 0, Errors: r.errors,
		Attempted: r.attempted, Failed: r.failed,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Slices: map[string][]sliceSample{}, Schemes: map[string]schemeInfo{},
	}
	env, err := json.Marshal(rep.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env %s\n", env)
	for _, sr := range r.schemes {
		b, a := &sr.before, &sr.after
		info := schemeInfo{
			SetupS: sr.setup.Seconds(), Commits: a.commits - b.commits, Attempts: a.attempts - b.attempts,
			Failed: a.failed - b.failed, GCCycles: a.mem.NumGC - b.mem.NumGC, LiveHeap: sr.liveHeap,
		}
		info.Aborted = info.Attempts - info.Commits
		rep.Schemes[sr.scheme.Key] = info
		rep.Slices[sr.scheme.Key] = sr.slices
		fmt.Fprintf(w, "# scheme %-3s setup=%.3fs commits=%d attempts=%d aborted=%d failed=%d gc_cycles=%d slices=%d\n",
			sr.scheme.Key, info.SetupS, info.Commits, info.Attempts, info.Aborted, info.Failed, info.GCCycles, len(sr.slices))
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "# ERROR %s\n", e)
	}
	line := resultLine{Correct: rep.Correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		printMetric(w, "metric", m, r.values[m.Name])
		rep.EndToEnd[m.Name] = r.values[m.Name]
		if !r.cfg.trace {
			line.Metrics[m.Name] = metricValue{r.values[m.Name], m.Unit}
		}
	}
	for _, m := range perLayer {
		val, ok := r.values[m.Name]
		if !ok {
			val, ok = probeValues[m.Name]
		}
		if !ok && !r.cfg.trace {
			continue // span and probe metrics exist only in a traced run
		}
		printMetric(w, "layer", m, val)
		rep.PerLayer[m.Name] = val
		if r.cfg.trace {
			line.Metrics[m.Name] = metricValue{val, m.Unit}
		}
	}
	if err := writeJSONFile(filepath.Join(r.cfg.outDir, r.cfg.wl.name+".json"), rep); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(line)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
