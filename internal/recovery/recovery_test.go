package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
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

// syncBuffer is a concurrency-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func newLoggedDB(t *testing.T, scheme core.Scheme) (*core.Database, *core.Table, *syncBuffer) {
	t.Helper()
	sink := &syncBuffer{}
	db, err := core.Open(core.Config{Scheme: scheme, LogSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "t",
		Indexes: []core.IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl, sink
}

func newEmptyDB(t *testing.T) (*core.Database, *core.Table) {
	t.Helper()
	db, err := core.Open(core.Config{Scheme: core.MVOptimistic})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "t",
		Indexes: []core.IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, tbl
}

// scanAll reads every live row into a map.
func scanAll(t *testing.T, db *core.Database, tbl *core.Table, maxKey uint64) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	tx := db.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k <= maxKey; k++ {
		row, ok, err := tx.Lookup(tbl, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out[k] = valOf(row.Payload())
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReplayRebuildsState(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic} {
		t.Run(scheme.String(), func(t *testing.T) {
			db, tbl, sink := newLoggedDB(t, scheme)
			// A little history: inserts, updates, deletes.
			for i := uint64(0); i < 20; i++ {
				tx := db.Begin()
				if err := tx.Insert(tbl, pay(i, i)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(0); i < 20; i += 2 {
				tx := db.Begin()
				if _, err := tx.UpdateWhere(tbl, 0, i, nil, func(old []byte) []byte {
					return pay(i, valOf(old)+100)
				}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(0); i < 20; i += 5 {
				tx := db.Begin()
				if _, err := tx.DeleteWhere(tbl, 0, i, nil); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			want := scanAll(t, db, tbl, 25)
			if err := db.Close(); err != nil { // flushes the log
				t.Fatal(err)
			}

			// Rebuild from the log into a fresh database.
			db2, tbl2 := newEmptyDB(t)
			st, err := Replay(db2, TableSet{"t": tbl2}, bytes.NewReader(sink.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != 20+10+4 {
				t.Fatalf("replayed %d records, want 34", st.Records)
			}
			got := scanAll(t, db2, tbl2, 25)
			if len(got) != len(want) {
				t.Fatalf("recovered %d rows, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %d = %d, want %d", k, got[k], v)
				}
			}
		})
	}
}

func TestReplayConcurrentHistory(t *testing.T) {
	// Concurrent writers produce an interleaved log; replay must still
	// converge to the same final state because end timestamps order it.
	db, tbl, sink := newLoggedDB(t, core.MVOptimistic)
	for i := uint64(0); i < 32; i++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, pay(i, 0)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := uint64((w*53 + i*13) % 32)
				tx := db.Begin()
				if _, err := tx.UpdateWhere(tbl, 0, k, nil, func(old []byte) []byte {
					return pay(k, valOf(old)+1)
				}); err != nil {
					tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	want := scanAll(t, db, tbl, 32)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The audit passes (every committed txn exactly once)...
	if _, err := Audit(bytes.NewReader(sink.Bytes())); err != nil {
		t.Fatal(err)
	}
	// ...and replay converges.
	db2, tbl2 := newEmptyDB(t)
	if _, err := Replay(db2, TableSet{"t": tbl2}, bytes.NewReader(sink.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, db2, tbl2, 32)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
}

func TestReplayShuffledStreams(t *testing.T) {
	// Commit ordering is determined by end timestamps carried in records,
	// so multiple log streams can be merged in any order (Section 3.2).
	db, tbl, sink := newLoggedDB(t, core.MVOptimistic)
	for i := uint64(0); i < 10; i++ {
		tx := db.Begin()
		if err := tx.Insert(tbl, pay(1000+i, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	if _, err := tx.UpdateWhere(tbl, 0, 1005, nil, func([]byte) []byte { return pay(1005, 999) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := scanAll(t, db, tbl, 1010)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := wal.ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the stream to simulate an adversarial merge order.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	db2, tbl2 := newEmptyDB(t)
	if _, err := ReplayRecords(db2, TableSet{"t": tbl2}, recs); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, db2, tbl2, 1010)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	if got[1005] != 999 {
		t.Fatalf("update lost in shuffled replay: %d", got[1005])
	}
}

func TestReplayUnknownTable(t *testing.T) {
	db, tbl, sink := newLoggedDB(t, core.MVOptimistic)
	tx := db.Begin()
	if err := tx.Insert(tbl, pay(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _ := newEmptyDB(t)
	if _, err := Replay(db2, TableSet{}, bytes.NewReader(sink.Bytes())); err == nil {
		t.Fatal("replay into missing table accepted")
	}
}

func TestOracleAdvancedPastRecoveredTimestamps(t *testing.T) {
	db, tbl, sink := newLoggedDB(t, core.MVOptimistic)
	tx := db.Begin()
	if err := tx.Insert(tbl, pay(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, tbl2 := newEmptyDB(t)
	st, err := Replay(db2, TableSet{"t": tbl2}, bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cur := db2.MV().Oracle().Current(); cur <= st.MaxEndTS {
		t.Fatalf("oracle at %d, want past %d", cur, st.MaxEndTS)
	}
}

func TestAuditDetectsDuplicates(t *testing.T) {
	rec := &wal.Record{TxID: 1, EndTS: 7, Ops: []wal.Entry{{Table: "t", Op: wal.OpInsert, Key: 1, Payload: pay(1, 1)}}}
	var buf bytes.Buffer
	l := wal.Open(wal.Config{Sink: &buf, Durability: wal.Flush, BatchSize: 1})
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	dup := *rec
	if err := l.Append(&dup); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Audit(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("duplicate end timestamp not detected")
	}
}

// Audit verifies a log stream against the exactly-once property: every end
// timestamp appears once, strictly increasing after sorting, with no zero
// timestamps. It returns the number of records checked.
func Audit(r io.Reader) (int, error) {
	recs, err := wal.ReadAll(r)
	if err != nil {
		return 0, err
	}
	seen := make(map[uint64]bool, len(recs))
	for _, rec := range recs {
		if rec.EndTS == 0 {
			return len(recs), fmt.Errorf("recovery: record with zero end timestamp (txid %d)", rec.TxID)
		}
		if seen[rec.EndTS] {
			return len(recs), fmt.Errorf("recovery: duplicate end timestamp %d", rec.EndTS)
		}
		seen[rec.EndTS] = true
	}
	return len(recs), nil
}
