package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ts"
	"repro/internal/wal"
)

const (
	sliceLen = 250 * time.Millisecond
	// sliceQuantile is the throughput statistic: the 90th percentile of the
	// slice rates is the sustained rate outside collector cycles and
	// neighbour bursts, which a mean or a median of the same slices is not
	// (README.md, "Measured noise").
	sliceQuantile = 0.9
	// sampleEvery: one transaction in 8 is timed (and, in a traced phase,
	// traced).
	sampleEvery = 8
	// maxAttempts bounds the retries of one transaction; a transaction that
	// is still aborting then counts as failed.
	maxAttempts = 64
	// latCap is the per-worker, per-slice latency sample capacity: 1/8 of
	// the fastest workload's ~500k tx/s per worker over 250 ms, doubled.
	latCap = 32 << 10
	// spanCap is the per-worker span capacity of one traced phase (32 MB).
	spanCap = 1 << 20
)

// runConfig is one workload run: three scheme runs, one database live at a
// time.
type runConfig struct {
	wl       *workloadDef
	seed     int64
	rows     uint64
	slices   int           // measured slices per scheme
	slice    time.Duration // sliceLen, except in tests
	warmup   time.Duration
	trace    bool // second half of the slices is traced
	workers  int
	outDir   string
	traceOut *traceFile // collects the span file of a traced run
}

// worker is one closed-loop client: it begins its next transaction only
// when the previous one has committed.
type worker struct {
	id    int
	rng   *rand.Rand
	types []txType
	total int    // sum of weights
	n     uint64 // transactions started

	lat   [][]uint32 // per untraced slice, sampled latencies in ns
	spans spanBuf

	// Published counters, on their own cache line: the slice sampler reads
	// them while the worker runs.
	_        [64]byte
	commits  atomic.Uint64
	attempts atomic.Uint64
	failed   atomic.Uint64
	_        [64]byte
}

// schemeRun is the shared state of one scheme's workers and sampler.
type schemeRun struct {
	db      *core.Database
	epoch   time.Time
	stop    atomic.Bool
	tracing atomic.Bool
	slice   atomic.Int32 // index of the untraced slice being measured, or -1
}

func (r *schemeRun) now() int64 { return int64(time.Since(r.epoch)) }

// workerSeed derives one worker's stream from the run seed (splitmix64
// finaliser, so neighbouring seeds and workers do not share streams).
func workerSeed(seed int64, w int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(w+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

func totalWeight(types []txType) (total int) {
	for _, t := range types {
		total += t.weight
	}
	return total
}

func newWorker(id int, seed int64, types []txType, slices int, trace bool) *worker {
	w := &worker{id: id, rng: rand.New(rand.NewSource(workerSeed(seed, id))), types: types, total: totalWeight(types)}
	w.lat = make([][]uint32, slices)
	for i := range w.lat {
		w.lat[i] = make([]uint32, 0, latCap)
	}
	if trace {
		w.spans.spans = make([]span, 0, spanCap)
	}
	return w
}

// pick draws the next transaction type by weight. A single-type mix draws
// nothing.
func pickType(types []txType, total int, rng *rand.Rand) int {
	if len(types) == 1 {
		return 0
	}
	x := rng.Intn(total)
	for i := range types {
		x -= types[i].weight
		if x < 0 {
			return i
		}
	}
	return len(types) - 1
}

// begin starts a transaction of type t. core.WithIsolation hands out
// prebuilt options, so nothing is allocated here.
func begin(db *core.Database, t *txType) *core.Tx {
	if t.readOnly {
		return db.BeginReadOnly()
	}
	return db.Begin(core.WithIsolation(t.iso))
}

// specifiedMiss reports TATP's "insert fails if the row exists" outcome,
// which the specification counts as a completed transaction. internal/tatp
// does not export the error, so it is recognised by its text.
func specifiedMiss(err error) bool {
	return err.Error() == "tatp: call forwarding row exists"
}

func (w *worker) run(r *schemeRun) {
	for !r.stop.Load() {
		ti := pickType(w.types, w.total, w.rng)
		t := &w.types[ti]
		w.n++
		sampled := w.n%sampleEvery == 0
		if sampled && r.tracing.Load() && w.spans.room() {
			w.runTraced(r, t, uint8(ti))
			continue
		}
		var t0 int64
		if sampled {
			t0 = r.now()
		}
		for attempt := 1; ; attempt++ {
			tx := begin(r.db, t)
			_, err := t.fn(tx, w.rng)
			if err == nil {
				err = tx.Commit()
			} else {
				_ = tx.Abort() // the body's error already decides the outcome
				if specifiedMiss(err) {
					err = nil
				}
			}
			w.attempts.Add(1)
			if err == nil {
				w.commits.Add(1)
				break
			}
			if attempt == maxAttempts {
				w.failed.Add(1)
				break
			}
		}
		if sampled {
			if s := r.slice.Load(); s >= 0 && len(w.lat[s]) < latCap {
				w.lat[s] = append(w.lat[s], uint32(min(r.now()-t0, 1<<32-1)))
			}
		}
	}
}

// runTraced runs one transaction with a span around every call into core.
// Consecutive spans share their boundary timestamp.
func (w *worker) runTraced(r *schemeRun, t *txType, ti uint8) {
	b := &w.spans
	at := r.now()
	root := b.add(spanTx, ti, -1, at, at)
	for attempt := 1; ; attempt++ {
		tx := begin(r.db, t)
		next := r.now()
		b.add(spanBegin, ti, root, at, next)
		at = next
		var err error
		if t.steps == nil {
			_, err = t.fn(tx, w.rng)
			next = r.now()
			b.add(t.bodyKind, ti, root, at, next)
			at = next
		}
		for i := 0; i < len(t.steps) && err == nil; i++ {
			_, err = t.steps[i].fn(tx, w.rng)
			next = r.now()
			b.add(t.steps[i].kind, ti, root, at, next)
			at = next
		}
		if err == nil {
			err = tx.Commit()
			next = r.now()
			b.add(spanCommit, ti, root, at, next)
		} else {
			_ = tx.Abort() // the body's error already decides the outcome
			next = r.now()
			b.add(spanAbort, ti, root, at, next)
			if specifiedMiss(err) {
				err = nil
			}
		}
		at = next
		w.attempts.Add(1)
		if err == nil {
			w.commits.Add(1)
			break
		}
		if attempt == maxAttempts {
			w.failed.Add(1)
			break
		}
	}
	b.spans[root].end = at
}

// counters is a snapshot of everything the per-transaction ratios are
// deltas of.
type counters struct {
	at                        time.Time
	commits, attempts, failed uint64
	mem                       runtime.MemStats
	db                        core.Stats
	log                       wal.LogStats
	funnel                    ts.FunnelStats
	gcCPU, totalCPU           float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (c *counters) take(db *core.Database, ws []*worker) {
	c.commits, c.attempts, c.failed = 0, 0, 0
	for _, w := range ws {
		c.commits += w.commits.Load()
		c.attempts += w.attempts.Load()
		c.failed += w.failed.Load()
	}
	c.db = db.Stats()
	c.log = db.LogStats()
	c.funnel = db.FunnelStats()
	metrics.Read(cpuSamples)
	c.gcCPU, c.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	runtime.ReadMemStats(&c.mem)
	c.at = time.Now()
}

// schemeResult is what one scheme run measured. Every ratio is over the
// untraced slices only.
type schemeResult struct {
	scheme       schemeSpec
	setup        time.Duration
	fingerprint  []uint64      // per worker
	slices       []sliceSample // untraced
	tracedSlices []sliceSample
	before       counters
	after        counters
	liveHeap     uint64
	pinOverflow  uint64
	reclaimLag   uint64
	p50us        float64
	p99us        float64
	spanMedian   [numSpanKinds]float64
	checkErr     error
}

// sliceSample is what one measured slice saw: committed transactions per
// second, and heap objects and bytes allocated per committed transaction.
type sliceSample struct {
	TxPerS      float64 `json:"tx_per_s"`
	AllocsPerTx float64 `json:"allocs_per_tx"`
	AllocBPerTx float64 `json:"alloc_b_per_tx"`
}

// measureSlices samples the workers' commit counters and the runtime's
// allocation counters every slice. It allocates nothing (out has the
// capacity). The allocation counters come from runtime.ReadMemStats, whose
// brief stop of the world flushes the per-P caches: the runtime/metrics
// counters lag by up to a span of objects per size class, which at durable's
// 250 transactions a slice is most of the signal.
func measureSlices(r *schemeRun, ws []*worker, n int, slice time.Duration, untraced bool, out []sliceSample) []sliceSample {
	var ms runtime.MemStats
	read := func() (commits, objects, bytes uint64) {
		for _, w := range ws {
			commits += w.commits.Load()
		}
		runtime.ReadMemStats(&ms)
		return commits, ms.Mallocs, ms.TotalAlloc
	}
	start := time.Now()
	prevT := start
	prevC, prevO, prevB := read()
	for i := 0; i < n; i++ {
		if untraced {
			r.slice.Store(int32(i))
		}
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * slice)))
		t := time.Now()
		c, o, b := read()
		out = append(out, sliceSample{
			TxPerS:      float64(c-prevC) / t.Sub(prevT).Seconds(),
			AllocsPerTx: ratio(float64(o-prevO), float64(c-prevC)),
			AllocBPerTx: ratio(float64(b-prevB), float64(c-prevC)),
		})
		prevT, prevC, prevO, prevB = t, c, o, b
	}
	r.slice.Store(-1)
	return out
}

// runScheme runs the protocol for one scheme: timed build + load,
// fingerprint pass, warm-up, measured slices, forced GC for the live heap,
// correctness check, close.
func runScheme(cfg runConfig, s schemeSpec) (*schemeResult, error) {
	res := &schemeResult{scheme: s}
	t0 := time.Now()
	inst, err := cfg.wl.build(buildArgs{scheme: s, rows: cfg.rows, seed: cfg.seed, dir: cfg.outDir})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	res.setup = time.Since(t0)

	if res.fingerprint, err = fingerprint(inst, cfg.workers, cfg.seed); err != nil {
		_ = inst.finish() // the run is already lost
		return nil, err
	}

	untraced, traced := cfg.slices, 0
	if cfg.trace {
		untraced = (cfg.slices + 1) / 2
		traced = cfg.slices - untraced
	}
	r := &schemeRun{db: inst.db, epoch: time.Now()}
	r.slice.Store(-1)
	ws := make([]*worker, cfg.workers)
	for i := range ws {
		ws[i] = newWorker(i, cfg.seed, inst.types(plainDist), untraced, traced > 0)
	}
	res.slices = make([]sliceSample, 0, untraced)
	res.tracedSlices = make([]sliceSample, 0, traced)
	runtime.GC()

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(r)
		}()
	}
	time.Sleep(cfg.warmup)
	res.before.take(inst.db, ws)
	res.slices = measureSlices(r, ws, untraced, cfg.slice, true, res.slices)
	res.after.take(inst.db, ws)
	if traced > 0 {
		r.tracing.Store(true)
		res.tracedSlices = measureSlices(r, ws, traced, cfg.slice, false, res.tracedSlices)
		r.tracing.Store(false)
	}
	r.stop.Store(true)
	wg.Wait()

	res.pinOverflow = inst.db.PinOverflows()
	if mvEng := inst.db.MV(); mvEng != nil {
		res.reclaimLag = uint64(mvEng.Collector().Pending())
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.liveHeap = ms.HeapAlloc

	res.p50us, res.p99us = latencyPercentiles(ws, untraced)
	if traced > 0 {
		res.spanMedian = spanMedians(ws)
		cfg.traceOut.addScheme(s.Key, ws)
	}

	res.checkErr = inst.check()
	if err := inst.finish(); err != nil && res.checkErr == nil {
		res.checkErr = err
	}
	return res, nil
}

// latencyPercentiles returns the median across slices of each slice's p50
// and p99 sampled transaction latency, in microseconds.
func latencyPercentiles(ws []*worker, slices int) (p50, p99 float64) {
	var p50s, p99s []float64
	var merged []float64
	for s := 0; s < slices; s++ {
		merged = merged[:0]
		for _, w := range ws {
			for _, ns := range w.lat[s] {
				merged = append(merged, float64(ns)/1e3)
			}
		}
		if len(merged) == 0 {
			continue
		}
		sort.Float64s(merged)
		p50s = append(p50s, quantileSorted(merged, 0.5))
		p99s = append(p99s, quantileSorted(merged, 0.99))
	}
	return quantile(p50s, 0.5), quantile(p99s, 0.5)
}
