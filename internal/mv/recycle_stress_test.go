package mv

// Recycle-safety stress: transaction and version objects are pooled, so the
// dangerous interleavings are (a) a visibility check holding a txn.Txn
// pointer while the object is Reset for a new transaction, and (b) a scan
// holding a *storage.Version while the garbage collector recycles it. The
// test hammers commit/abort/recycle with concurrent readers and cooperative
// GC on a tiny hot table, using self-verifying payloads so any use-after-
// reset surfaces as a checksum mismatch (and any data race trips -race).

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

const stressMagic = 0x9E3779B97F4A7C15

// stressRow builds a self-verifying 24-byte payload.
func stressRow(key, val uint64) []byte {
	p := make([]byte, 24)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	binary.LittleEndian.PutUint64(p[16:], key^val^stressMagic)
	return p
}

func stressRowOK(p []byte) bool {
	if len(p) != 24 {
		return false
	}
	k := binary.LittleEndian.Uint64(p)
	v := binary.LittleEndian.Uint64(p[8:])
	return binary.LittleEndian.Uint64(p[16:]) == k^v^stressMagic
}

func TestRecycleStress(t *testing.T) {
	const (
		rows    = 64
		workers = 8
		iters   = 4000
	)
	e := NewEngine(Config{GCEvery: 1, GCQuota: 128})
	defer e.Close()
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "hot",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }, Buckets: rows},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, stressRow(k, k))
	}

	var corrupt atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
			scheme := Optimistic
			if w%2 == 1 {
				scheme = Pessimistic
			}
			for i := 0; i < iters; i++ {
				key := rng.Uint64() % rows
				switch i % 4 {
				case 0, 1: // read-modify-write, sometimes deliberately aborted
					tx := e.Begin(scheme, ReadCommitted)
					newVal := rng.Uint64()
					_, err := tx.UpdateWhere(tbl, 0, key, nil, func(old []byte) []byte {
						if !stressRowOK(old) {
							corrupt.Add(1)
						}
						return stressRow(key, newVal)
					})
					if err != nil || rng.Intn(8) == 0 {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				case 2: // snapshot scan validating every visible payload
					tx := e.Begin(scheme, SnapshotIsolation)
					ok := true
					for j := 0; j < 8; j++ {
						k := rng.Uint64() % rows
						err := tx.Scan(tbl, 0, k, nil, func(v *storage.Version) bool {
							if !stressRowOK(v.Payload()) || binary.LittleEndian.Uint64(v.Payload()) != k {
								corrupt.Add(1)
							}
							return true // walk the whole version chain
						})
						if err != nil {
							ok = false
							break
						}
					}
					if !ok {
						tx.Abort()
						continue
					}
					_ = tx.Commit()
				case 3: // repeatable-read point reads (lock paths on MV/L)
					tx := e.Begin(scheme, RepeatableRead)
					v, found, err := tx.Lookup(tbl, 0, key, nil)
					if err != nil {
						tx.Abort()
						continue
					}
					if found && !stressRowOK(v.Payload()) {
						corrupt.Add(1)
					}
					_ = tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()

	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d corrupt payloads observed: use-after-reset on a pooled object", n)
	}
	// Drain remaining garbage so the recycling pipeline is fully exercised,
	// then confirm the pools actually cycled — otherwise this test proved
	// nothing about reuse safety.
	for e.Collector().Pending() > 0 {
		if e.CollectGarbage(0) == 0 {
			break
		}
	}
	s := e.Stats()
	if s.TxRecycled == 0 {
		t.Fatal("no transaction objects were recycled during the stress run")
	}
	if s.VersionsRecycled == 0 {
		t.Fatal("no version objects were recycled during the stress run")
	}
	if s.Commits == 0 || s.Aborts == 0 {
		t.Fatalf("stress mix degenerate: commits=%d aborts=%d", s.Commits, s.Aborts)
	}
}

// TestRecycledTxIdentity pins the revalidation contract: after an engine
// recycles a Tx, the old handle's txn object carries a new identity, and the
// old transaction's ID is never resurrected.
func TestRecycledTxIdentity(t *testing.T) {
	e, tbl := newTestEngine(t)
	tx := e.Begin(Optimistic, ReadCommitted)
	oldT := tx.T
	oldID := oldT.ID()
	if err := tx.Insert(tbl, testPayload(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Churn transactions until the engine hands the same object out again.
	for i := 0; i < 100000; i++ {
		tx2 := e.Begin(Optimistic, ReadCommitted)
		reused := tx2.T == oldT
		_ = tx2.Commit()
		if reused {
			if tx2.T.ID() == oldID {
				t.Fatal("recycled txn reused an old ID")
			}
			if _, ok := e.TxnTable().Lookup(oldID); ok {
				t.Fatal("terminated transaction still resolvable by old ID")
			}
			return
		}
	}
	t.Skip("engine never recycled the transaction object (pool pressure)")
}
