package core

// Degraded read-only mode: after a latched log failure, the in-flight commit
// fails, new writes fail fast with ErrDegraded on every scheme, and reads —
// plain and read-only snapshot — keep serving.

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// brokenSink fails every Write once tripped; Sync fails once tripped too.
type brokenSink struct {
	mu       sync.Mutex
	writeErr error
	syncErr  error
	syncs    int
}

func (s *brokenSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return 0, s.writeErr
	}
	return len(p), nil
}

func (s *brokenSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	return s.syncErr
}

func (s *brokenSink) trip(write, sync error) {
	s.mu.Lock()
	s.writeErr, s.syncErr = write, sync
	s.mu.Unlock()
}

func (s *brokenSink) syncCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

func testDegradedEngine(t *testing.T, scheme Scheme, breakSink func(*brokenSink)) {
	sink := &brokenSink{}
	db, err := Open(Config{
		Scheme:      scheme,
		LogSink:     sink,
		Durability:  DurabilityFsync,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy phase: a committed row to read back later.
	tx := db.Begin()
	if err := tx.Insert(tbl, pay(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Degraded(); err != nil {
		t.Fatalf("healthy database reports degraded: %v", err)
	}

	// The disk dies; the in-flight commit must fail, not be acknowledged.
	breakSink(sink)
	tx = db.Begin()
	if err := tx.Insert(tbl, pay(2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit acknowledged after log failure")
	}
	if err := db.Degraded(); err == nil {
		t.Fatal("database not degraded after failed commit")
	}

	// New writes fail fast with ErrDegraded, before taking locks or space.
	tx = db.Begin()
	if err := tx.Insert(tbl, pay(3, 30)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Insert on degraded engine = %v, want ErrDegraded", err)
	}
	tx.Abort()

	// Reads keep serving — both a plain transaction and the read-only
	// snapshot fast lane — and the failed commit's effects are invisible.
	for _, ro := range []bool{false, true} {
		var rtx *Tx
		if ro {
			rtx = db.BeginReadOnly()
		} else {
			rtx = db.Begin()
		}
		row, ok, err := rtx.Lookup(tbl, 0, 1, nil)
		if err != nil || !ok || valOf(row.Payload()) != 10 {
			t.Fatalf("read (readonly=%v) on degraded engine: ok=%v err=%v", ro, ok, err)
		}
		if _, ok, _ := rtx.Lookup(tbl, 0, 2, nil); ok {
			t.Fatalf("aborted commit's row visible after degradation (readonly=%v)", ro)
		}
		if err := rtx.Commit(); err != nil {
			t.Fatalf("read-only commit on degraded engine: %v", err)
		}
	}
}

func TestDegradedOnWriteError(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			testDegradedEngine(t, scheme, func(s *brokenSink) {
				s.trip(errors.New("EIO: write failed"), nil)
			})
		})
	}
}

func TestDegradedOnFsyncError(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sinkRef := make(chan *brokenSink, 1)
			testDegradedEngine(t, scheme, func(s *brokenSink) {
				sinkRef <- s
				s.trip(nil, errors.New("EIO: fsync failed"))
			})
			// The fsyncgate contract holds end to end: after the failed
			// fsync was latched, the engine never issued another one.
			s := <-sinkRef
			after := s.syncCalls()
			time.Sleep(5 * time.Millisecond)
			if s.syncCalls() != after {
				t.Fatal("fsync retried after a latched fsync failure")
			}
		})
	}
}

// TestDegradedAsyncFlusherFailure: at Async durability no commit waits for
// the sink, so the failure surfaces in the flusher. The database reports it
// as soon as the log latches it, and the next write fails fast.
func TestDegradedAsyncFlusherFailure(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sink := &brokenSink{}
			db, err := Open(Config{Scheme: scheme, LogSink: sink, Durability: DurabilityAsync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable(TableSpec{
				Name:    "t",
				Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: 1 << 10}},
			})
			if err != nil {
				t.Fatal(err)
			}
			sink.trip(errors.New("EIO: write failed"), nil)
			tx := db.Begin()
			if err := tx.Insert(tbl, pay(1, 10)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("async commit waited for the sink: %v", err)
			}
			if err := db.WAL().Flush(); err == nil {
				t.Fatal("flush of a failed batch succeeded")
			}
			if err := db.Degraded(); err == nil {
				t.Fatal("flusher latched a failure, database not degraded")
			}
			tx = db.Begin()
			if err := tx.Insert(tbl, pay(2, 20)); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Insert after the flusher failed = %v, want ErrDegraded", err)
			}
			tx.Abort()
		})
	}
}
