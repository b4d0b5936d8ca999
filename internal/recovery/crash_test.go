package recovery_test

// The crash-injection suite: concurrent serializable workloads on all three
// engines are killed at seeded fault points — a torn group-commit batch, a
// freeze between flush and commit acknowledgement, a crash mid-checkpoint-
// partition, a crash after the manifest but before CURRENT flips, and a
// chopped log tail — then recovered from the surviving checkpoint + log and
// validated with the range-aware history checker.
//
// Every transaction inserts a unique marker row in a dedicated table in the
// same transaction as its data operations. A transaction whose commit
// acknowledgement raced the crash has an unknown outcome; because the log
// record (and the checkpoint) are atomic per transaction, the marker's
// presence in the recovered database decides it: marker present <=> the
// whole transaction is durable. The recovered history — definite commits,
// plus unknowns resolved durable, plus one final transaction reading
// everything back — must be serializable against the initial state.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	crashKeys    = 96
	crashGroups  = 8
	crashWorkers = 4
	crashTxns    = 150
)

func crashSecKey(p []byte) uint64 {
	return workload.SecondaryLayout.MustEncode(workload.RowVal(p)%crashGroups, workload.RowKey(p))
}

var crashIndexers = map[string]check.IndexKeyFn{
	"grp": func(key, value uint64) (uint64, bool) {
		return workload.SecondaryLayout.MustEncode(value%crashGroups, key), true
	},
}

// outcome is one committed-as-far-as-we-know transaction: its recorded
// footprint, its marker key, and whether the commit acknowledgement was
// observed strictly before the crash.
type outcome struct {
	h        check.Txn
	marker   uint64
	definite bool
}

func crashSchema(t *testing.T, db *core.Database) (rows, marks *core.Table) {
	t.Helper()
	rows, err := workload.SecondaryTable(db, crashKeys, crashGroups)
	if err != nil {
		t.Fatal(err)
	}
	marks, err = db.CreateTable(core.TableSpec{
		Name:    "marks",
		Indexes: []core.IndexSpec{{Name: "pk", Key: workload.RowKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, marks
}

func crashSpecs(rows, marks *core.Table) []ckpt.TableSpec {
	return []ckpt.TableSpec{
		{Table: rows, Partitions: 3, Lo: 0, Hi: crashKeys - 1},
		{Table: marks, Partitions: 2, Lo: 0, Hi: uint64(crashWorkers+1) << 40},
	}
}

func runCrashScenario(t *testing.T, scheme core.Scheme, fault string) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{
		Scheme:      scheme,
		LogSink:     store,
		Durability:  core.DurabilityFlush,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, marks := crashSchema(t, db)

	// Logged initial load (LoadRow bypasses the log, so go through
	// transactions): even keys, value = key*100.
	initial := make(map[uint64]uint64)
	for base := uint64(0); base < crashKeys; base += 32 {
		tx := db.Begin()
		for k := base; k < base+32 && k < crashKeys; k += 2 {
			v := k * 100
			if err := tx.Insert(rows, workload.Row(k, v)); err != nil {
				t.Fatal(err)
			}
			initial[k] = v
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// A pre-crash checkpoint, so most scenarios recover checkpoint + tail.
	cp := ckpt.New(db, store, crashSpecs(rows, marks), ckpt.Options{})
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}

	f := wal.NewFaults()
	switch fault {
	case "wal.tear":
		f.Arm(ckpt.FaultWALTear, 5)
	case "wal.freeze":
		f.Arm(ckpt.FaultWALFreeze, 5)
	case "ckpt.partition":
		f.Arm(ckpt.FaultPartWrite, 1)
	case "ckpt.manifest":
		f.Arm(ckpt.FaultManifest, 0)
	case "chop":
		// No armed fault: a manual freeze, then tail bytes dropped.
	default:
		t.Fatalf("unknown fault %q", fault)
	}
	store.SetFaults(f)

	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for i := 0; i < crashTxns && !store.Frozen(); i++ {
				marker := uint64(id+1)<<40 | uint64(i)
				h, ok := runCrashTxn(db, rows, marks, rng, marker)
				if !ok {
					continue
				}
				mu.Lock()
				outcomes = append(outcomes, outcome{h: h, marker: marker, definite: !store.Frozen()})
				mu.Unlock()
			}
		}(w)
	}

	// Mid-workload checkpoints: the vehicle for the ckpt.* faults, and for
	// the others a live streaming checkpoint racing the crash.
	for i := 0; i < 20 && !store.Frozen(); i++ {
		time.Sleep(2 * time.Millisecond)
		cp.Run() // errors (lock timeouts, injected freeze) are part of the scenario
	}
	if fault == "chop" {
		store.Freeze()
	}
	wg.Wait()
	if !store.Frozen() {
		t.Fatalf("fault %s never fired", fault)
	}
	db.Close()
	store.Close()
	if fault == "chop" {
		if err := store.ChopTail(13); err != nil {
			t.Fatal(err)
		}
	}

	// Recover into a fresh database (no log: replaying recovery transactions
	// into a new log would re-append old history).
	store2, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := core.Open(core.Config{Scheme: scheme, LockTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows2, marks2 := crashSchema(t, db2)
	st, err := recovery.Recover(db2, recovery.TableSet{"rows": rows2, "marks": marks2},
		store2, recovery.Options{Workers: 4})
	if err != nil {
		t.Fatalf("recovery after %s: %v", fault, err)
	}

	// Resolve outcomes by marker presence, build the durable history.
	var history []check.Txn
	var maxEnd uint64
	rtx := db2.Begin(core.WithIsolation(core.SnapshotIsolation))
	for _, o := range outcomes {
		_, durable, err := rtx.Lookup(marks2, 0, o.marker, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.definite && !durable && fault != "chop" {
			// ChopTail deliberately destroys acknowledged bytes; every other
			// scenario promised durability for acknowledged commits.
			t.Errorf("%s: definite txn@%d (marker %#x) lost by recovery", fault, o.h.EndTS, o.marker)
		}
		if durable {
			history = append(history, o.h)
			if o.h.EndTS > maxEnd {
				maxEnd = o.h.EndTS
			}
		}
	}
	rtx.Commit()

	// One final transaction reading everything back from the recovered
	// database joins the history: if recovery lost, duplicated or reordered
	// any durable effect, the checker sees it as a serializability
	// violation of this read.
	final := check.Txn{EndTS: maxEnd + 1}
	ftx := db2.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k < crashKeys; k++ {
		row, ok, err := ftx.Lookup(rows2, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := check.Read{Table: "rows", Key: k, Found: ok}
		if ok {
			r.Value = workload.RowVal(row.Payload())
		}
		final.Reads = append(final.Reads, r)
	}
	for g := uint64(0); g < crashGroups; g++ {
		lo, hi := workload.SecondaryLayout.MustPrefixRange(g)
		rr := check.RangeRead{Table: "rows", Index: "grp", Lo: lo, Hi: hi}
		err := ftx.ScanPrefix(rows2, 1, []uint64{g}, nil, func(r core.Row) bool {
			rr.Keys = append(rr.Keys, crashSecKey(r.Payload()))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		final.RangeReads = append(final.RangeReads, rr)
	}
	ftx.Commit()
	history = append(history, final)

	if err := check.ValidateIndexed(initial, "rows", history, crashIndexers); err != nil {
		t.Fatalf("%s on %s: recovered history not serializable: %v\nrecovery stats: %+v",
			fault, scheme, err, st)
	}
	if len(history) < 2 {
		t.Fatalf("%s: degenerate scenario, only %d durable transactions", fault, len(history))
	}
}

// runCrashTxn executes one serializable workload transaction: a recorded
// group scan, a recorded point read, one write (insert, update or delete),
// and the marker insert. It returns the footprint and whether the commit
// succeeded.
func runCrashTxn(db *core.Database, rows, marks *core.Table, rng *rand.Rand, marker uint64) (check.Txn, bool) {
	tx := db.Begin(core.WithIsolation(core.Serializable))
	var h check.Txn

	g := rng.Uint64() % crashGroups
	lo, hi := workload.SecondaryLayout.MustPrefixRange(g)
	rr := check.RangeRead{Table: "rows", Index: "grp", Lo: lo, Hi: hi}
	if err := tx.ScanPrefix(rows, 1, []uint64{g}, nil, func(r core.Row) bool {
		rr.Keys = append(rr.Keys, crashSecKey(r.Payload()))
		return true
	}); err != nil {
		tx.Abort()
		return h, false
	}
	h.RangeReads = append(h.RangeReads, rr)

	rk := rng.Uint64() % crashKeys
	row, ok, err := tx.Lookup(rows, 0, rk, nil)
	if err != nil {
		tx.Abort()
		return h, false
	}
	r := check.Read{Table: "rows", Key: rk, Found: ok}
	if ok {
		r.Value = workload.RowVal(row.Payload())
	}
	h.Reads = append(h.Reads, r)

	wk := rng.Uint64() % crashKeys
	wrow, wok, err := tx.Lookup(rows, 0, wk, nil)
	if err != nil {
		tx.Abort()
		return h, false
	}
	switch {
	case !wok:
		nv := rng.Uint64() % 1_000_000
		if err := tx.Insert(rows, workload.Row(wk, nv)); err != nil {
			tx.Abort()
			return h, false
		}
		h.Writes = append(h.Writes, check.Write{Table: "rows", Key: wk, Value: nv})
	case rng.Intn(5) == 0:
		if err := tx.Delete(rows, wrow); err != nil {
			tx.Abort()
			return h, false
		}
		h.Writes = append(h.Writes, check.Write{Table: "rows", Op: check.WriteDelete, Key: wk})
	default:
		nv := rng.Uint64() % 1_000_000
		if err := tx.Update(rows, wrow, workload.Row(wk, nv)); err != nil {
			tx.Abort()
			return h, false
		}
		h.Writes = append(h.Writes, check.Write{Table: "rows", Key: wk, Value: nv})
	}

	if err := tx.Insert(marks, workload.Row(marker, 1)); err != nil {
		tx.Abort()
		return h, false
	}
	h.Writes = append(h.Writes, check.Write{Table: "marks", Key: marker, Value: 1})

	end, err := tx.CommitTS()
	if err != nil || end == 0 {
		return h, false
	}
	h.EndTS = end
	return h, true
}

func TestCrashRecovery(t *testing.T) {
	schemes := []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}
	faults := []string{"wal.tear", "wal.freeze", "ckpt.partition", "ckpt.manifest", "chop"}
	if testing.Short() {
		// One scheme still covers every fault's recovery path; the full
		// scheme × fault matrix is the long-mode/CI sweep.
		schemes = schemes[:1]
	}
	for _, scheme := range schemes {
		for _, fault := range faults {
			scheme, fault := scheme, fault
			t.Run(scheme.String()+"/"+fault, func(t *testing.T) {
				runCrashScenario(t, scheme, fault)
			})
		}
	}
}
