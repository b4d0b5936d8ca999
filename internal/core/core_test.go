package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

func pay(key, val uint64) []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	return p
}

func keyOf(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }
func valOf(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }

var allSchemes = []Scheme{SingleVersion, MVPessimistic, MVOptimistic}

func openTest(t *testing.T, scheme Scheme) (*Database, *Table) {
	t.Helper()
	db, err := Open(Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, tbl
}

func TestCRUDAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			db, tbl := openTest(t, scheme)
			// Insert.
			tx := db.Begin()
			if err := tx.Insert(tbl, pay(1, 10)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Read.
			tx = db.Begin()
			row, ok, err := tx.Lookup(tbl, 0, 1, nil)
			if err != nil || !ok || valOf(row.Payload()) != 10 {
				t.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
			// Update via handle.
			if err := tx.Update(tbl, row, pay(1, 20)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Verify and delete.
			tx = db.Begin()
			row, ok, _ = tx.Lookup(tbl, 0, 1, nil)
			if !ok || valOf(row.Payload()) != 20 {
				t.Fatalf("after update: ok=%v val=%d", ok, valOf(row.Payload()))
			}
			if err := tx.Delete(tbl, row); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = db.Begin()
			if _, ok, _ := tx.Lookup(tbl, 0, 1, nil); ok {
				t.Fatal("row visible after delete")
			}
			tx.Commit()
			s := db.Stats()
			if s.Commits == 0 {
				t.Fatal("no commits counted")
			}
		})
	}
}

func TestScanPredicate(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			db, tbl := openTest(t, scheme)
			// Two rows with the same index key (same bucket via same key).
			db.LoadRow(tbl, pay(7, 1))
			db.LoadRow(tbl, pay(7, 2))
			tx := db.Begin()
			var vals []uint64
			err := tx.Scan(tbl, 0, 7, func(p []byte) bool { return valOf(p) == 2 }, func(r Row) bool {
				vals = append(vals, valOf(r.Payload()))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != 1 || vals[0] != 2 {
				t.Fatalf("vals = %v", vals)
			}
			tx.Commit()
		})
	}
}

// The bank invariant: concurrent transfers preserve total balance under
// serializable isolation on every scheme.
func TestBankTransferInvariant(t *testing.T) {
	const accounts = 20
	const workers = 4
	const transfers = 200
	const initial = 1000

	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			db, tbl := openTest(t, scheme)
			for i := uint64(0); i < accounts; i++ {
				db.LoadRow(tbl, pay(i, initial))
			}
			var wg sync.WaitGroup
			var gaveUp atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < transfers; i++ {
						from := uint64((w*31 + i*17) % accounts)
						to := uint64((w*13 + i*7 + 1) % accounts)
						if from == to {
							continue
						}
						if !transferOnce(db, tbl, from, to, 1) {
							gaveUp.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			if n := gaveUp.Load(); n != 0 {
				t.Fatalf("%d transfers never committed", n)
			}
			// Sum must be unchanged.
			tx := db.Begin(WithIsolation(Serializable))
			var total uint64
			for i := uint64(0); i < accounts; i++ {
				row, ok, err := tx.Lookup(tbl, 0, i, nil)
				if err != nil || !ok {
					t.Fatalf("account %d: ok=%v err=%v", i, ok, err)
				}
				total += valOf(row.Payload())
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

// transferOnce retries until the transfer commits and reports whether it did
// within 100 attempts. Each retry first sleeps a random, growing backoff:
// two transfers that read-then-update each other's rows deadlock on their
// lock upgrades, and retrying at once walks both straight back into it.
func transferOnce(db *Database, tbl *Table, from, to uint64, amount uint64) bool {
	for attempt := 0; attempt < 100; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(rand.Intn(200<<(attempt%8))) * time.Microsecond)
		}
		tx := db.Begin(WithIsolation(Serializable))
		ok := func() bool {
			fromRow, found, err := tx.Lookup(tbl, 0, from, nil)
			if err != nil || !found {
				return false
			}
			toRow, found, err := tx.Lookup(tbl, 0, to, nil)
			if err != nil || !found {
				return false
			}
			fv, tv := valOf(fromRow.Payload()), valOf(toRow.Payload())
			if fv < amount {
				return true // nothing to transfer; commit empty
			}
			if err := tx.Update(tbl, fromRow, pay(from, fv-amount)); err != nil {
				return false
			}
			if err := tx.Update(tbl, toRow, pay(to, tv+amount)); err != nil {
				return false
			}
			return true
		}()
		if !ok {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err == nil {
			return true
		}
	}
	return false
}

func TestMixedSchemesViaOptions(t *testing.T) {
	db, tbl := openTest(t, MVOptimistic)
	db.LoadRow(tbl, pay(1, 10))
	// A pessimistic transaction on an optimistic database.
	tx := db.Begin(WithScheme(MVPessimistic), WithIsolation(RepeatableRead))
	row, ok, err := tx.Lookup(tbl, 0, 1, nil)
	if err != nil || !ok {
		t.Fatalf("lookup: %v", err)
	}
	if err := tx.Update(tbl, row, pay(1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLoggingProducesOrderedRecords(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			var buf bytes.Buffer
			var mu sync.Mutex
			sink := writerFunc(func(p []byte) (int, error) {
				mu.Lock()
				defer mu.Unlock()
				return buf.Write(p)
			})
			db, err := Open(Config{Scheme: scheme, LogSink: sink})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable(TableSpec{
				Name:    "t",
				Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 64}},
			})
			if err != nil {
				t.Fatal(err)
			}
			db.LoadRow(tbl, pay(1, 0))
			const n = 50
			for i := 1; i <= n; i++ {
				tx := db.Begin()
				if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte {
					return pay(1, uint64(i))
				}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			recs, err := wal.ReadAll(bytes.NewReader(buf.Bytes()))
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != n {
				t.Fatalf("log has %d records, want %d", len(recs), n)
			}
			// Single-threaded updates: end timestamps strictly increase.
			for i := 1; i < len(recs); i++ {
				if recs[i].EndTS <= recs[i-1].EndTS {
					t.Fatalf("log order violated: %d after %d", recs[i].EndTS, recs[i-1].EndTS)
				}
			}
		})
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

var _ io.Writer = writerFunc(nil)

func TestOpenUnknownScheme(t *testing.T) {
	if _, err := Open(Config{Scheme: Scheme(99)}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestWithIsolationOutOfRange(t *testing.T) {
	// Prebuilt option lookup must tolerate arbitrary levels (negative or
	// past the table) without panicking.
	for _, lvl := range []Isolation{Isolation(-1), Isolation(99)} {
		if o := WithIsolation(lvl)(txOptions{}); o.iso != lvl {
			t.Fatalf("WithIsolation(%d) set %d", lvl, o.iso)
		}
	}
}

func TestTxHandleFailsFastAfterCommit(t *testing.T) {
	db, err := Open(Config{Scheme: MVOptimistic})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(TableSpec{Name: "t", Indexes: []IndexSpec{{
		Name: "pk", Key: func(p []byte) uint64 { return uint64(p[0]) }, Buckets: 16,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(tbl, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("second Commit = %v, want ErrTxDone", err)
	}
	if err := tx.Abort(); err != ErrTxDone {
		t.Fatalf("Abort after Commit = %v, want ErrTxDone", err)
	}
	if err := tx.Insert(tbl, []byte{2}); err != ErrTxDone {
		t.Fatalf("Insert after Commit = %v, want ErrTxDone", err)
	}
}
