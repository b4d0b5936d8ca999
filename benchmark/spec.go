package main

import "repro/internal/core"

// metricSpec declares one metric: the single source for what every workload
// command prints and for what BENCHMARK.json lists (the test compares them).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// schemeSpec names one concurrency-control scheme. Key prefixes the scheme's
// end-to-end metrics, Layer its per-layer metrics (layer = package name).
type schemeSpec struct {
	Key    string
	Layer  string
	Scheme core.Scheme
}

// schemes is the fixed run order; one database is live at a time.
var schemes = []schemeSpec{
	{Key: "mvo", Layer: "mv.mvo", Scheme: core.MVOptimistic},
	{Key: "mvl", Layer: "mv.mvl", Scheme: core.MVPessimistic},
	{Key: "sv", Layer: "sv", Scheme: core.SingleVersion},
}

// Regression bounds: the share of the parent's median by which a metric may
// worsen. Each is at least three times the run-to-run spread (inter-quartile
// range over the median of ten seeds) measured on the 2-vCPU box this was
// written on, or the 25% the contract caps a bound at; README.md has the
// measurements. Throughput and set-up sit at the cap because the box itself
// drifts by up to 23% over minutes, whatever the protocol.
const (
	boundSetup    = 0.25
	boundTxPerS   = 0.25
	boundAllocs   = 0.04
	boundAllocB   = 0.20
	boundAttempts = 0.01
	boundLiveHeap = 0.05
)

// endToEnd is the same set on every workload.
var endToEnd = func() []metricSpec {
	m := []metricSpec{{"setup_s", "s", "lower", boundSetup}}
	for _, s := range schemes {
		m = append(m, metricSpec{s.Key + ".tx_per_s", "1/s", "higher", boundTxPerS})
	}
	for _, s := range schemes {
		m = append(m, metricSpec{s.Key + ".allocs_per_tx", "1/tx", "lower", boundAllocs})
	}
	for _, s := range schemes {
		m = append(m, metricSpec{s.Key + ".alloc_b_per_tx", "B/tx", "lower", boundAllocB})
	}
	return append(m,
		metricSpec{"attempts_per_tx", "1/tx", "lower", boundAttempts},
		metricSpec{"live_heap_mb", "MB", "lower", boundLiveHeap})
}()

// spanMetrics are the per-call medians taken from the traced run, one set
// per scheme layer, in the order of the span kinds they summarise.
var spanMetrics = []struct {
	suffix string
	kind   spanKind
}{
	{"begin_ns", spanBegin},
	{"read_ns", spanRead},
	{"scan_ns", spanScan},
	{"write_ns", spanWrite},
	{"commit_ns", spanCommit},
}

// perLayer lists every per-layer metric: trace spans, counters, then probes.
// A metric that does not apply to a workload (scan_ns where nothing scans,
// wal.commits_per_fsync where nothing fsyncs) is printed as 0.
var perLayer = func() []metricSpec {
	var m []metricSpec
	add := func(name, unit, better string) { m = append(m, metricSpec{name, unit, better, 0}) }
	for _, s := range schemes {
		for _, sm := range spanMetrics {
			add(s.Layer+"."+sm.suffix, "ns", "lower")
		}
	}
	add("benchmark.trace_overhead_frac", "frac", "lower")
	for _, s := range schemes {
		add(s.Layer+".tx_p50_us", "us", "lower")
		add(s.Layer+".tx_p99_us", "us", "lower")
	}
	for _, s := range schemes[:2] {
		add(s.Layer+".write_conflicts_per_ktx", "1/ktx", "lower")
		add(s.Layer+".validation_fails_per_ktx", "1/ktx", "lower")
		add(s.Layer+".lock_failures_per_ktx", "1/ktx", "lower")
		add(s.Layer+".deadlock_victims_per_ktx", "1/ktx", "lower")
	}
	add("sv.lock_timeouts_per_ktx", "1/ktx", "lower")
	add("ts.draws_per_tx", "1/tx", "lower")
	add("ts.combine_ratio", "ratio", "higher")
	add("gc.versions_retired_per_tx", "1/tx", "lower")
	add("gc.reclaim_lag_versions", "count", "lower")
	add("gc.pin_overflows", "count", "lower")
	add("wal.bytes_per_tx", "B/tx", "lower")
	add("wal.records_per_batch", "1/batch", "higher")
	add("wal.commits_per_fsync", "1/fsync", "higher")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_cpu_frac", "frac", "lower")
	add("runtime.tx_per_s_mean", "1/s", "higher")
	return append(m, probes...)
}()
