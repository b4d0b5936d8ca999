package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/tatp"
	"repro/internal/workload"
)

// txFn is one transaction body; the bodies themselves live in
// internal/workload and internal/tatp and draw their own keys from rng.
type txFn func(tx *core.Tx, rng *rand.Rand) (reads int, err error)

// step is one single-call slice of a body. A traced transaction runs its
// body as a sequence of steps so that every core.Tx call gets its own span;
// the steps are the shared body with R, W or Scans set to 1, and draw from
// rng in the order the whole body would.
type step struct {
	kind spanKind
	fn   txFn
}

// txType is one transaction type of a workload's mix.
type txType struct {
	name     string
	weight   int
	readOnly bool // begins with db.BeginReadOnly()
	iso      core.Isolation
	fn       txFn
	// steps is the traced decomposition of fn. When nil the body is traced
	// as one span of kind bodyKind (TATP: a body cannot be cut from outside,
	// but two read types and one write type are a single call each).
	steps    []step
	bodyKind spanKind
}

// distWrap lets the fingerprint pass observe the keys a body draws from the
// key distribution the harness hands it.
type distWrap func(workload.Dist) workload.Dist

func plainDist(d workload.Dist) workload.Dist { return d }

// instance is one loaded database of one scheme, live for one scheme run.
type instance struct {
	db *core.Database
	// What was loaded: the single table of update-uniform, range and
	// durable, or TATP's four; durable also owns its store.
	table    *core.Table
	tatp     *tatp.DB
	store    *ckpt.Store
	storeDir string

	types func(wrap distWrap) []txType
	// check is the workload's correctness check; it runs on the open
	// database after the measured slices and must be able to fail.
	check func() error
	// finish closes the database. On durable it first recovers a fresh
	// database from the store and compares it row for row.
	finish func() error
}

type buildArgs struct {
	scheme schemeSpec
	rows   uint64
	seed   int64
	dir    string // scratch directory inside the checkout (durable only)
}

// workloadDef declares one workload. rows is the table size (tatp:
// subscribers) of a comparable run, quickRows of a -quick smoke run.
type workloadDef struct {
	name      string
	why       string
	rows      uint64
	quickRows uint64
	build     func(a buildArgs) (*instance, error)
}

var workloads = []workloadDef{
	{
		name: "update-uniform",
		why:  "paper Fig. 4 update mix (10 reads + 2 updates, uniform keys, hash index, async log): version install, GC, arena and WAL encode do the work",
		rows: 1_000_000, quickRows: 10_000,
		build: buildUpdateUniform,
	},
	{
		name: "tatp",
		why:  "paper 5.3 TATP mix of 1 us transactions, reads on the read-only lane: per-transaction fixed cost (begin, oracle, pins, commit, hash lookup) is nearly all of it",
		rows: 200_000, quickRows: 2_000,
		build: buildTATP,
	},
	{
		name: "range",
		why:  "4 scans x 100 rows + 2 updates, serializable, ordered index: skip list, cursors, visibility, scan validation and range locks; the other workloads never touch an ordered index",
		rows: 1_000_000, quickRows: 10_000,
		build: buildRange,
	},
	{
		name: "durable",
		why:  "2 reads + 2 updates at fsync durability into a ckpt.Store, then recovery: the only workload with the WAL flusher, fsync, checkpoint and recovery on its path",
		rows: 65_536, quickRows: 4_096,
		build: buildDurable,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repeatStep returns n copies of one step.
func repeatStep(n int, s step) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// homogeneousType is the R-read/W-update transaction of internal/workload
// with its traced single-call decomposition.
func homogeneousType(name string, tbl *core.Table, d workload.Dist, r, w int, level core.Isolation) txType {
	one := func(r, w int) txFn {
		return workload.Homogeneous{Table: tbl, Dist: d, R: r, W: w}.Run
	}
	return txType{
		name: name, weight: 1, iso: level,
		fn: one(r, w),
		steps: append(repeatStep(r, step{spanRead, one(1, 0)}),
			repeatStep(w, step{spanWrite, one(0, 1)})...),
	}
}

func buildUpdateUniform(a buildArgs) (*instance, error) {
	db, err := core.Open(core.Config{Scheme: a.scheme.Scheme, LogSink: io.Discard})
	if err != nil {
		return nil, err
	}
	tbl, err := workload.Table(db, a.rows)
	if err != nil {
		return nil, err
	}
	workload.Load(db, tbl, a.rows)
	return &instance{
		db: db, table: tbl,
		types: func(wrap distWrap) []txType {
			d := wrap(workload.Uniform{N: a.rows})
			return []txType{homogeneousType("R10W2", tbl, d, 10, 2, core.ReadCommitted)}
		},
		check:  func() error { return checkDenseKeys(db, tbl, a.rows) },
		finish: db.Close,
	}, nil
}

// tatpTypes says how each TATP type runs and is traced: the three read
// types begin on the read-only fast lane, and a body that is exactly one
// core.Tx call lends its span to that call's per-layer metric.
var tatpTypes = map[string]struct {
	readOnly bool
	bodyKind spanKind
}{
	"GET_SUBSCRIBER_DATA":    {true, spanRead},
	"GET_NEW_DESTINATION":    {true, spanBody},
	"GET_ACCESS_DATA":        {true, spanRead},
	"UPDATE_SUBSCRIBER_DATA": {false, spanBody},
	"UPDATE_LOCATION":        {false, spanWrite},
	"INSERT_CALL_FORWARDING": {false, spanBody},
	"DELETE_CALL_FORWARDING": {false, spanBody},
}

func buildTATP(a buildArgs) (*instance, error) {
	db, err := core.Open(core.Config{Scheme: a.scheme.Scheme, LogSink: io.Discard})
	if err != nil {
		return nil, err
	}
	d, err := tatp.CreateTables(db, a.rows)
	if err != nil {
		return nil, err
	}
	d.Load(a.seed)
	return &instance{
		db: db, tatp: d,
		types: func(distWrap) []txType {
			var out []txType
			for _, t := range d.Mix(core.ReadCommitted) {
				how, ok := tatpTypes[t.Name]
				if !ok {
					panic("benchmark: internal/tatp has a transaction type this file does not know: " + t.Name)
				}
				out = append(out, txType{
					name: t.Name, weight: t.Weight, iso: t.Isolation, fn: txFn(t.Fn),
					readOnly: how.readOnly, bodyKind: how.bodyKind,
				})
			}
			return out
		},
		check:  d.Validate,
		finish: db.Close,
	}, nil
}

const (
	rangeScans = 4
	rangeSpan  = 100
	rangeW     = 2
)

func buildRange(a buildArgs) (*instance, error) {
	db, err := core.Open(core.Config{Scheme: a.scheme.Scheme, LogSink: io.Discard})
	if err != nil {
		return nil, err
	}
	tbl, err := workload.OrderedTable(db, a.rows)
	if err != nil {
		return nil, err
	}
	workload.Load(db, tbl, a.rows)
	return &instance{
		db: db, table: tbl,
		types: func(wrap distWrap) []txType {
			d := wrap(workload.Uniform{N: a.rows})
			mix := func(scans, w int) txFn {
				return workload.RangeMix{Table: tbl, Dist: d, N: a.rows, Scans: scans, Span: rangeSpan, W: w}.Run
			}
			return []txType{{
				name: "S4x100W2", weight: 1, iso: core.Serializable,
				fn: mix(rangeScans, rangeW),
				steps: append(repeatStep(rangeScans, step{spanScan, mix(1, 0)}),
					repeatStep(rangeW, step{spanWrite, mix(0, 1)})...),
			}}
		},
		check:  func() error { return checkRanges(db, tbl, a.rows) },
		finish: db.Close,
	}, nil
}

func buildDurable(a buildArgs) (*instance, error) {
	dir := filepath.Join(a.dir, fmt.Sprintf("durable-%d-%s", os.Getpid(), a.scheme.Key))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	db, err := core.Open(core.Config{Scheme: a.scheme.Scheme, LogSink: store, Durability: core.DurabilityFsync})
	if err != nil {
		return nil, err
	}
	tbl, err := workload.Table(db, a.rows)
	if err != nil {
		return nil, err
	}
	workload.Load(db, tbl, a.rows)
	// Loaded rows are not logged: the checkpoint is what recovery restores
	// them from, so it belongs to set-up.
	cp := ckpt.New(db, store, []ckpt.TableSpec{{Table: tbl, Lo: 0, Hi: a.rows - 1}}, ckpt.Options{})
	if _, err := cp.Run(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &instance{
		db: db, table: tbl, store: store, storeDir: dir,
		types: func(wrap distWrap) []txType {
			d := wrap(workload.Uniform{N: a.rows})
			return []txType{homogeneousType("R2W2", tbl, d, 2, 2, core.ReadCommitted)}
		},
		check: func() error { return checkDenseKeys(db, tbl, a.rows) },
		finish: func() error {
			defer os.RemoveAll(dir)
			return recoverAndCompare(db, tbl, store, a.scheme.Scheme, a.rows, dir)
		},
	}, nil
}
