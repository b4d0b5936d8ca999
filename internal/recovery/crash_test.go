package recovery_test

// The crash-injection suite: concurrent serializable workloads on all three
// engines run into one fault each and are recovered from the surviving
// checkpoint + log, then validated with the range-aware history checker.
// Every fault is injected through the store's one crash model
// (ckpt.StoreOptions.Faults, docs/durability.md): at the Flush durability
// level, process kills on the live segment (a torn batch, a whole batch whose
// committers are refused), in the middle of a checkpoint partition file and
// between the manifest and the CURRENT flip; at the Fsync level, the disk's
// byte-granularity faults (write error, short write, ENOSPC, failed fsync,
// power loss). Both levels also run a chopped log tail.
//
// Every transaction inserts a unique marker row in a dedicated table in the
// same transaction as its data operations. Because the log record (and the
// checkpoint) are atomic per transaction, the marker's presence in the
// recovered database decides whether the whole transaction is durable. A
// commit that returned nil is a promise: it MUST survive recovery, except
// under "chop", which deliberately destroys acknowledged tail bytes. A commit
// the log refused must NOT survive — except where the scenario lets the
// refused batch's bytes land (a process kill mid-batch or after it, a power
// loss mid-cleanup); there the marker decides. The recovered history —
// surviving commits plus one final transaction reading everything back —
// must be serializable against the initial state.

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

// outcome is one transaction whose commit reached the log: its recorded
// footprint and its marker key.
type outcome struct {
	h      check.Txn
	marker uint64
}

// crashScenario is one row of the crash suite. The fault is armed on the
// store's registry after the initial load and first checkpoint; after is its
// countdown in Fire calls (on the live segment for wal.* and file.* points,
// on partition files for ckpt.partition). "chop" arms nothing: the workload
// completes and acknowledged tail bytes are destroyed before recovery.
type crashScenario struct {
	durability core.Durability
	name       string // the subtest name
	point      string // the armed fault point; "" for chop
	after      int
	resurrect  bool // a refused commit may survive recovery
}

var crashScenarios = []crashScenario{
	{core.DurabilityFlush, "wal.tear", wal.FaultWALTear, 5, true},
	{core.DurabilityFlush, "wal.freeze", wal.FaultWALFreeze, 5, true},
	{core.DurabilityFlush, "ckpt.partition", ckpt.FaultPartWrite, 1, false},
	{core.DurabilityFlush, "ckpt.manifest", ckpt.FaultManifest, 0, false},
	{core.DurabilityFlush, "chop", "", 0, false},
	{core.DurabilityFsync, "powerloss", wal.FaultFileCrash, 9, true},
	{core.DurabilityFsync, "syncerr", wal.FaultFileSyncErr, 5, false},
	{core.DurabilityFsync, "enospc", wal.FaultFileENOSPC, 5, false},
	{core.DurabilityFsync, "shortwrite", wal.FaultFileShortWrite, 5, false},
	{core.DurabilityFsync, "writeerr", wal.FaultFileWriteErr, 5, false},
	{core.DurabilityFsync, "chop", "", 0, false},
}

// TestCrashRecovery runs the process-kill scenarios at Flush durability.
func TestCrashRecovery(t *testing.T) { runCrashScenarios(t, core.DurabilityFlush) }

// TestSyncCommitCrashRecovery runs the disk-fault scenarios at Fsync
// durability: the honesty test of the synchronous commit.
func TestSyncCommitCrashRecovery(t *testing.T) { runCrashScenarios(t, core.DurabilityFsync) }

func runCrashScenarios(t *testing.T, d core.Durability) {
	schemes := []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}
	if testing.Short() {
		// One scheme still covers every fault's recovery path; the full
		// scheme × fault matrix is the long-mode/CI sweep.
		schemes = schemes[:1]
	}
	for _, scheme := range schemes {
		for _, sc := range crashScenarios {
			if sc.durability != d {
				continue
			}
			t.Run(scheme.String()+"/"+sc.name, func(t *testing.T) {
				runCrashScenario(t, scheme, sc)
			})
		}
	}
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

func runCrashScenario(t *testing.T, scheme core.Scheme, sc crashScenario) {
	dir := t.TempDir()
	f := wal.NewFaults()
	store, err := ckpt.OpenStoreWith(dir, ckpt.StoreOptions{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{
		Scheme:      scheme,
		LogSink:     store,
		Durability:  sc.durability,
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

	// Arm the fault only now: the load and the first checkpoint ran on a
	// healthy store, the workload below runs into the fault.
	if sc.point != "" {
		f.Arm(sc.point, sc.after)
	}

	// Acked: Commit returned nil — definite, MUST survive. Refused: the log
	// refused a commit that had drawn its end timestamp; it must not survive
	// unless sc.resurrect, and then its marker places it in the history.
	var (
		mu       sync.Mutex
		acked    []outcome
		refused  []outcome
		attempts int
	)
	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for i := 0; i < crashTxns && db.Degraded() == nil; i++ {
				marker := uint64(id+1)<<40 | uint64(i)
				h, ok := runCrashTxn(db, rows, marks, rng, marker)
				mu.Lock()
				attempts++
				switch {
				case ok:
					acked = append(acked, outcome{h: h, marker: marker})
				case h.EndTS != 0 && len(h.Writes) > 0:
					refused = append(refused, outcome{h: h, marker: marker})
				}
				mu.Unlock()
			}
		}(w)
	}

	// Mid-workload checkpoints: the vehicle for the ckpt.* faults, and for
	// the others a live streaming checkpoint racing the crash. Errors (lock
	// timeouts, the injected crash) are part of the scenario.
	for i := 0; i < 20 && db.Degraded() == nil; i++ {
		time.Sleep(2 * time.Millisecond)
		cp.Run()
	}
	wg.Wait()
	if sc.point != "" {
		if store.Err() == nil {
			t.Fatalf("fault %s never fired (%d commits attempted)", sc.name, attempts)
		}
	} else if err := store.Err(); err != nil {
		t.Fatalf("chop scenario failed before the chop: %v", err)
	}
	db.Close() // flushes; after a crash the close error is the latched fault
	store.Close()
	if sc.point == "" {
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
		t.Fatalf("recovery after %s: %v", sc.name, err)
	}

	// The acceptance gates: every acknowledged commit is present (chop is
	// exempt; its survivors still join the history), and a refused commit
	// is absent unless the scenario lets it resurrect.
	var history []check.Txn
	var maxEnd uint64
	lost, resurrected := 0, 0
	rtx := db2.Begin(core.WithIsolation(core.SnapshotIsolation))
	// survived reports whether o's marker was recovered, and if so adds o
	// to the history.
	survived := func(o outcome) bool {
		_, ok, err := rtx.Lookup(marks2, 0, o.marker, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			history = append(history, o.h)
			maxEnd = max(maxEnd, o.h.EndTS)
		}
		return ok
	}
	for _, o := range acked {
		if !survived(o) {
			lost++
			if sc.point != "" {
				t.Errorf("%s: acknowledged txn@%d (marker %#x) lost by recovery",
					sc.name, o.h.EndTS, o.marker)
			}
		}
	}
	for _, o := range refused {
		if survived(o) {
			resurrected++
			if !sc.resurrect {
				t.Errorf("%s: refused txn@%d (marker %#x) resurrected by recovery",
					sc.name, o.h.EndTS, o.marker)
			}
		}
	}
	rtx.Commit()

	// One final transaction reads everything back; the checker treats any
	// recovery loss, duplication or reordering as a serializability violation
	// of this read.
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
			sc.name, scheme, err, st)
	}
	if len(history) < 3 {
		t.Fatalf("%s: degenerate scenario, only %d durable transactions (%d acked, %d lost)",
			sc.name, len(history)-1, len(acked), lost)
	}
	t.Logf("%s on %s: %d attempted, %d acknowledged, %d refused, %d lost, %d resurrected, stats %+v",
		sc.name, scheme, attempts, len(acked), len(refused), lost, resurrected, st)
}

// runCrashTxn executes one serializable workload transaction: a recorded
// group scan, a recorded point read, one write (insert, update or delete),
// and the marker insert. It returns the footprint and whether the commit was
// acknowledged. When the log refused the commit, the end timestamp CommitTS
// drew travels back in h.EndTS, so a refused transaction that recovery
// resurrects can be placed in the history.
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
	h.EndTS = end // non-zero with an error ⇒ the log refused a drawn commit
	return h, err == nil && end != 0
}
