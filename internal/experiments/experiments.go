package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/tatp"
	"repro/internal/workload"
)

// Schemes lists the three concurrency control mechanisms in the paper's
// presentation order.
var Schemes = []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}

// Config controls experiment scale. The paper's testbed (2-socket, 24
// hardware threads, 10M-row tables, minutes-long runs) does not fit a unit
// test; the defaults reproduce the workloads at laptop scale. Absolute
// throughput is not comparable to the paper; the relative behaviour of the
// three schemes is.
type Config struct {
	// NLarge is the row count standing in for the paper's 10,000,000-row
	// low-contention table.
	NLarge uint64
	// NSmall is the hotspot table size (the paper uses exactly 1,000).
	NSmall uint64
	// TATPSubscribers stands in for the paper's 20,000,000 subscribers.
	TATPSubscribers uint64
	// MaxMPL is the highest multiprogramming level (the paper's 24).
	MaxMPL int
	// MPLs is the multiprogramming-level sweep for the scalability figures.
	MPLs []int
	// ReadRatios is the x-axis of Figures 6 and 7 (percent read-only).
	ReadRatios []int
	// LongReaders is the x-axis of Figures 8 and 9 (count of long readers).
	LongReaders []int
	// Duration and Warmup control each measurement point.
	Duration time.Duration
	Warmup   time.Duration
	// Seed makes runs reproducible.
	Seed int64
	// Logging enables the asynchronous group-commit redo log (the paper's
	// configuration); records are encoded and discarded.
	Logging bool
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		NLarge:          200_000,
		NSmall:          1_000,
		TATPSubscribers: 100_000,
		MaxMPL:          24,
		MPLs:            []int{1, 2, 4, 6, 8, 12, 16, 20, 24},
		ReadRatios:      []int{0, 20, 40, 60, 80, 100},
		LongReaders:     []int{0, 1, 2, 4, 6, 12, 18, 24},
		Duration:        400 * time.Millisecond,
		Warmup:          100 * time.Millisecond,
		Seed:            1,
		Logging:         true,
	}
}

// TestConfig returns a small configuration for unit tests and smoke runs.
// It uses a moderate multiprogramming level: on machines with few hardware
// threads, very high MPLs inflate lock hold times across scheduler
// preemptions and distort the comparisons.
func TestConfig() Config {
	c := DefaultConfig()
	c.NLarge = 20_000
	c.TATPSubscribers = 5_000
	c.MaxMPL = 8
	c.MPLs = []int{1, 4, 8}
	c.ReadRatios = []int{0, 50, 100}
	c.LongReaders = []int{0, 2, 4}
	c.Duration = 300 * time.Millisecond
	c.Warmup = 75 * time.Millisecond
	return c
}

func (c Config) openDB(scheme core.Scheme) *core.Database {
	cfg := core.Config{Scheme: scheme}
	if c.Logging {
		cfg.LogSink = io.Discard
	}
	db, err := core.Open(cfg)
	if err != nil {
		panic(err) // schemes are enumerated internally; cannot fail
	}
	return db
}

// loadUniform creates and populates the homogeneous workload table.
func (c Config) loadUniform(scheme core.Scheme, n uint64) (*core.Database, *core.Table) {
	db := c.openDB(scheme)
	tbl, err := workload.Table(db, n)
	if err != nil {
		panic(err)
	}
	workload.Load(db, tbl, n)
	return db, tbl
}

// loadOrdered creates and populates the homogeneous workload table with an
// ordered (range-scannable) primary index.
func (c Config) loadOrdered(scheme core.Scheme, n uint64) (*core.Database, *core.Table) {
	db := c.openDB(scheme)
	tbl, err := workload.OrderedTable(db, n)
	if err != nil {
		panic(err)
	}
	workload.Load(db, tbl, n)
	return db, tbl
}

// updateMix is the Section 5.1 transaction: R=10 reads, W=2 writes.
func updateMix(tbl *core.Table, n uint64, level core.Isolation) bench.TxType {
	h := workload.Homogeneous{Table: tbl, Dist: workload.Uniform{N: n}, R: 10, W: 2}
	return bench.TxType{Name: "update", Weight: 1, Isolation: level, Fn: h.Run}
}

// readOnlyMix is the Section 5.2.1 read transaction: R=10, W=0.
func readOnlyMix(tbl *core.Table, n uint64, level core.Isolation) bench.TxType {
	h := workload.Homogeneous{Table: tbl, Dist: workload.Uniform{N: n}, R: 10, W: 0}
	return bench.TxType{Name: "read", Weight: 1, Isolation: level, Fn: h.Run}
}

// Fig4 reproduces Figure 4: transaction throughput vs multiprogramming level
// under low contention (R=10, W=2 on the large table, Read Committed).
func (c Config) Fig4() *Report {
	return c.scalability("Figure 4", "Scalability under low contention", c.NLarge)
}

// Fig5 reproduces Figure 5: the same sweep on a 1,000-row hotspot table.
func (c Config) Fig5() *Report {
	return c.scalability("Figure 5", "Scalability under high contention", c.NSmall)
}

func (c Config) scalability(id, title string, n uint64) *Report {
	rep := &Report{
		ID:      id,
		Title:   title + fmt.Sprintf(" (R=10, W=2, N=%d, Read Committed)", n),
		Columns: append([]string{"MPL"}, schemeLabels()...),
	}
	series := make([]Series, len(Schemes))
	for i, s := range Schemes {
		series[i].Label = s.String()
	}
	for _, mpl := range c.MPLs {
		row := []string{fmt.Sprint(mpl)}
		for i, scheme := range Schemes {
			db, tbl := c.loadUniform(scheme, n)
			res := bench.Run(db, []bench.TxType{updateMix(tbl, n, core.ReadCommitted)},
				bench.Options{Workers: mpl, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
			db.Close()
			tps := res.TPS()
			series[i].X = append(series[i].X, float64(mpl))
			series[i].Y = append(series[i].Y, tps)
			row = append(row, f0(tps))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Series = series
	return rep
}

// Table3 reproduces Table 3: throughput at MPL 24 under Read Committed,
// Repeatable Read and Serializable, with the percentage drop relative to
// Read Committed.
func (c Config) Table3() *Report {
	rep := &Report{
		ID:    "Table 3",
		Title: fmt.Sprintf("Throughput at higher isolation levels (R=10, W=2, N=%d, MPL=%d)", c.NLarge, c.MaxMPL),
		Columns: []string{"Scheme", "RC tx/sec", "RR tx/sec", "RR %drop",
			"SER tx/sec", "SER %drop"},
	}
	levels := []core.Isolation{core.ReadCommitted, core.RepeatableRead, core.Serializable}
	for _, scheme := range Schemes {
		tps := make([]float64, len(levels))
		for li, level := range levels {
			db, tbl := c.loadUniform(scheme, c.NLarge)
			res := bench.Run(db, []bench.TxType{updateMix(tbl, c.NLarge, level)},
				bench.Options{Workers: c.MaxMPL, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
			db.Close()
			tps[li] = res.TPS()
		}
		drop := func(i int) float64 {
			if tps[0] <= 0 {
				return 0
			}
			return (tps[0] - tps[i]) / tps[0]
		}
		rep.Rows = append(rep.Rows, []string{
			scheme.String(), f0(tps[0]), f0(tps[1]), pct(drop(1)), f0(tps[2]), pct(drop(2)),
		})
		rep.Series = append(rep.Series, Series{
			Label: scheme.String(),
			X:     []float64{0, 1, 2},
			Y:     tps,
		})
	}
	return rep
}

// Fig6 reproduces Figure 6: throughput as the share of short read-only
// transactions grows, low contention.
func (c Config) Fig6() *Report {
	return c.readMix("Figure 6", "Impact of short read-only transactions (low contention)", c.NLarge)
}

// Fig7 reproduces Figure 7: the same sweep on the hotspot table.
func (c Config) Fig7() *Report {
	return c.readMix("Figure 7", "Impact of short read-only transactions (high contention)", c.NSmall)
}

func (c Config) readMix(id, title string, n uint64) *Report {
	rep := &Report{
		ID:      id,
		Title:   title + fmt.Sprintf(" (N=%d, MPL=%d, Read Committed; MV readers on the read-only lane)", n, c.MaxMPL),
		Columns: append([]string{"%read-only"}, schemeLabels()...),
	}
	series := make([]Series, len(Schemes))
	for i, s := range Schemes {
		series[i].Label = s.String()
	}
	for _, ratio := range c.ReadRatios {
		row := []string{fmt.Sprint(ratio)}
		for i, scheme := range Schemes {
			db, tbl := c.loadUniform(scheme, n)
			up := updateMix(tbl, n, core.ReadCommitted)
			rd := readOnlyMix(tbl, n, core.ReadCommitted)
			// MV read-only transactions take the registration-free lane;
			// 1V's lane takes repeatable-read locks, so it stays at Read
			// Committed as in the paper.
			rd.ReadOnly = scheme != core.SingleVersion
			up.Weight = 100 - ratio
			rd.Weight = ratio
			types := []bench.TxType{up, rd}
			res := bench.Run(db, types,
				bench.Options{Workers: c.MaxMPL, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
			db.Close()
			tps := res.TPS()
			series[i].X = append(series[i].X, float64(ratio))
			series[i].Y = append(series[i].Y, tps)
			row = append(row, f0(tps))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Series = series
	return rep
}

// RangeScan is a range-heavy scenario over an ordered primary index: 80% of
// transactions run 4 range scans of 100 consecutive keys, 20% run the
// R=10/W=2 update mix, per scheme and multiprogramming level. It has no
// counterpart figure in the paper (the prototype had only hash indexes); it
// measures what the ordered access method costs each scheme — MV cursors
// pay visibility checks per version, 1V pays range-lock admission — at
// multiprogramming levels the benchmark's two-client `range` workload
// (benchmark/README.md) does not reach.
func (c Config) RangeScan() *Report {
	const span = 100
	rep := &Report{
		ID: "Range",
		Title: fmt.Sprintf("Range-heavy workload (ordered index, 80%% 4×%d-row scans, 20%% R=10/W=2 updates, N=%d, Read Committed)",
			span, c.NLarge),
		Columns: append([]string{"MPL"}, schemeLabels()...),
	}
	series := make([]Series, len(Schemes))
	for i, s := range Schemes {
		series[i].Label = s.String()
	}
	for _, mpl := range c.MPLs {
		row := []string{fmt.Sprint(mpl)}
		for i, scheme := range Schemes {
			db, tbl := c.loadOrdered(scheme, c.NLarge)
			rm := workload.RangeMix{
				Table: tbl, Dist: workload.Uniform{N: c.NLarge}, N: c.NLarge,
				Scans: 4, Span: span, W: 0,
			}
			up := workload.Homogeneous{Table: tbl, Dist: workload.Uniform{N: c.NLarge}, R: 10, W: 2}
			types := []bench.TxType{
				{Name: "range", Weight: 80, Isolation: core.ReadCommitted, Fn: rm.Run},
				{Name: "update", Weight: 20, Isolation: core.ReadCommitted, Fn: up.Run},
			}
			res := bench.Run(db, types,
				bench.Options{Workers: mpl, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
			db.Close()
			tps := res.TPS()
			series[i].X = append(series[i].X, float64(mpl))
			series[i].Y = append(series[i].Y, tps)
			row = append(row, f0(tps))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Series = series
	return rep
}

// longReaderResults runs the Section 5.2.2 experiment once per x value and
// scheme, returning update tx/s and reader rows/s.
func (c Config) longReaderResults() (update, reads []Series) {
	update = make([]Series, len(Schemes))
	reads = make([]Series, len(Schemes))
	for i, s := range Schemes {
		update[i].Label = s.String()
		reads[i].Label = s.String()
	}
	rowsPerReader := c.NLarge / 10 // the paper's readers touch 10% of the table
	for _, x := range c.LongReaders {
		if x > c.MaxMPL {
			continue
		}
		for i, scheme := range Schemes {
			db, tbl := c.loadUniform(scheme, c.NLarge)
			// The paper's reporting queries are transactionally consistent
			// read-only transactions. Per Section 3.4, read-only
			// transactions needing a consistent view run under snapshot
			// isolation, which is serializable for them: on the MV engines
			// they read a snapshot without locks or validation; the 1V
			// engine upgrades SI to repeatable read and takes read locks
			// held to commit.
			long := bench.TxType{
				Name:      "long-read",
				Pinned:    x,
				Isolation: core.SnapshotIsolation,
				Fn: workload.LongReader{
					Table: tbl, N: c.NLarge, Rows: rowsPerReader,
				}.Run,
			}
			up := updateMix(tbl, c.NLarge, core.ReadCommitted)
			res := bench.Run(db, []bench.TxType{long, up},
				bench.Options{Workers: c.MaxMPL, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
			db.Close()
			update[i].X = append(update[i].X, float64(x))
			update[i].Y = append(update[i].Y, res.TypeTPS("update"))
			reads[i].X = append(reads[i].X, float64(x))
			reads[i].Y = append(reads[i].Y, res.TypeReadsPerSec("long-read"))
		}
	}
	return update, reads
}

// Fig8And9 reproduces Figures 8 and 9 from the same runs: update throughput
// and read throughput as long read-only transactions are added.
func (c Config) Fig8And9() (*Report, *Report) {
	update, reads := c.longReaderResults()
	mk := func(id, title, unit string, series []Series) *Report {
		rep := &Report{
			ID:      id,
			Title:   title + fmt.Sprintf(" (N=%d, readers scan 10%%, MPL=%d)", c.NLarge, c.MaxMPL),
			Columns: append([]string{"long readers"}, schemeLabels()...),
			Series:  series,
		}
		if len(series) > 0 {
			for xi := range series[0].X {
				row := []string{fmt.Sprint(int(series[0].X[xi]))}
				for _, s := range series {
					row = append(row, f0(s.Y[xi]))
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
		_ = unit
		return rep
	}
	fig8 := mk("Figure 8", "Update throughput with long read transactions", "tx/s", update)
	fig9 := mk("Figure 9", "Read throughput with long read transactions", "rows/s", reads)
	return fig8, fig9
}

// Table4 reproduces Table 4: TATP throughput per scheme.
func (c Config) Table4() *Report {
	rep := &Report{
		ID:      "Table 4",
		Title:   fmt.Sprintf("TATP results (%d subscribers, Read Committed)", c.TATPSubscribers),
		Columns: []string{"Scheme", "Transactions per second", "Abort rate"},
	}
	var series Series
	series.Label = "TATP"
	for _, scheme := range Schemes {
		db := c.openDB(scheme)
		td, err := tatp.CreateTables(db, c.TATPSubscribers)
		if err != nil {
			panic(err)
		}
		td.Load(c.Seed)
		res := bench.Run(db, td.Mix(core.ReadCommitted),
			bench.Options{Workers: c.MaxMPL, Duration: c.Duration, Warmup: c.Warmup, Seed: c.Seed})
		db.Close()
		rep.Rows = append(rep.Rows, []string{scheme.String(), f0(res.TPS()), pct(res.AbortRate())})
		series.X = append(series.X, float64(len(series.X)))
		series.Y = append(series.Y, res.TPS())
	}
	rep.Series = []Series{series}
	return rep
}

func schemeLabels() []string {
	out := make([]string, len(Schemes))
	for i, s := range Schemes {
		out[i] = s.String()
	}
	return out
}

// All runs every experiment in paper order.
func (c Config) All() []*Report {
	var out []*Report
	out = append(out, c.Fig4(), c.Fig5(), c.Table3(), c.Fig6(), c.Fig7())
	f8, f9 := c.Fig8And9()
	out = append(out, f8, f9, c.Table4(), c.RangeScan())
	return out
}

// ByID runs the experiment with the given identifier (fig4, fig5, table3,
// fig6, fig7, fig8, fig9, table4, range, all).
func (c Config) ByID(id string) ([]*Report, error) {
	switch id {
	case "fig4":
		return []*Report{c.Fig4()}, nil
	case "range":
		return []*Report{c.RangeScan()}, nil
	case "fig5":
		return []*Report{c.Fig5()}, nil
	case "table3":
		return []*Report{c.Table3()}, nil
	case "fig6":
		return []*Report{c.Fig6()}, nil
	case "fig7":
		return []*Report{c.Fig7()}, nil
	case "fig8", "fig9":
		f8, f9 := c.Fig8And9()
		if id == "fig8" {
			return []*Report{f8}, nil
		}
		return []*Report{f9}, nil
	case "table4":
		return []*Report{c.Table4()}, nil
	case "all":
		return c.All(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}
