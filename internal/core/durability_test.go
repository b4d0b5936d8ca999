package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/wal"
)

// lockedBuffer is a concurrency-safe sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// With DurabilityFlush, the redo record is durable (in the sink) before Commit
// returns — no flush required.
func TestSyncCommitDurableBeforeReturn(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sink := &lockedBuffer{}
			db, err := Open(Config{Scheme: scheme, LogSink: sink, Durability: DurabilityFlush})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable(TableSpec{
				Name:    "t",
				Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 64}},
			})
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			if err := tx.Insert(tbl, pay(1, 10)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			recs, err := wal.ReadAll(bytes.NewReader(sink.Snapshot()))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || len(recs[0].Ops) != 1 || recs[0].Ops[0].Op != wal.OpInsert {
				t.Fatalf("log after sync commit: %d records", len(recs))
			}
		})
	}
}

// Aborted transactions and read-only transactions leave nothing in the log.
func TestLogSkipsAbortsAndReadOnly(t *testing.T) {
	sink := &lockedBuffer{}
	db, err := Open(Config{Scheme: MVOptimistic, LogSink: sink, Durability: DurabilityFlush})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.LoadRow(tbl, pay(1, 10))

	// Aborted writer: nothing logged.
	tx := db.Begin()
	if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return pay(1, 99) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Read-only transaction: nothing logged.
	tx = db.Begin()
	if _, _, err := tx.Lookup(tbl, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(bytes.NewReader(sink.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("log has %d records, want 0", len(recs))
	}
}
