package mv

// Speculative reads through the Preparing window (Sections 2.5 and 2.7),
// made deterministic by holding a transaction in its Preparing state with a
// blocking synchronous log sink.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// gateWriter blocks Write calls until released.
type gateWriter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	released bool
}

func newGateWriter() *gateWriter {
	g := &gateWriter{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	for !g.released {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return len(p), nil
}

func (g *gateWriter) Release() {
	g.mu.Lock()
	g.released = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

func TestSpeculativeReadOfPreparingVersion(t *testing.T) {
	gate := newGateWriter()
	log := wal.Open(wal.Config{Sink: gate, Durability: wal.Flush, BatchSize: 1})
	e := NewEngine(Config{DeadlockInterval: -1, Log: log})
	t.Cleanup(func() {
		gate.Release()
		e.Close()
	})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 10))

	// The writer updates and commits; the synchronous log append blocks it
	// in the Preparing state.
	writer := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- writer.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for writer.T.State() != txn.Preparing {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached Preparing")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A read-committed reader (logical read time = current > writer's end
	// timestamp) speculatively reads the new version and acquires a commit
	// dependency on the writer (Table 1, Preparing row). It also
	// speculatively ignores the old version (Table 2, Preparing row).
	reader := e.Begin(Optimistic, ReadCommitted)
	v, ok := readVal(t, reader, tbl, 1)
	if !ok || v != 20 {
		t.Fatalf("speculative read = %d,%v, want 20", v, ok)
	}
	if reader.T.CommitDepCount() == 0 {
		t.Fatal("no commit dependency registered for the speculative read")
	}

	// The reader's commit must wait for the writer.
	readerDone := make(chan error, 1)
	go func() { readerDone <- reader.Commit() }()
	select {
	case err := <-readerDone:
		t.Fatalf("reader committed before its dependency resolved: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Release the log: the writer commits, the dependency resolves, the
	// reader commits.
	gate.Release()
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
}

func TestSpeculativeIgnoreOldVersion(t *testing.T) {
	// A snapshot reader whose begin predates the writer's end timestamp
	// must still see the OLD version while the writer prepares — with no
	// dependency, because the old version is visible whether or not the
	// writer commits (Table 2: TS > RT).
	gate := newGateWriter()
	log := wal.Open(wal.Config{Sink: gate, Durability: wal.Flush, BatchSize: 1})
	e := NewEngine(Config{DeadlockInterval: -1, Log: log})
	t.Cleanup(func() {
		gate.Release()
		e.Close()
	})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "t",
		Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.LoadRow(tbl, testPayload(1, 10))

	snap := e.Begin(Optimistic, SnapshotIsolation) // begins before the writer's end

	writer := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 1, 20); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- writer.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for writer.T.State() != txn.Preparing {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached Preparing")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if v, ok := readVal(t, snap, tbl, 1); !ok || v != 10 {
		t.Fatalf("snapshot read during prepare = %d,%v, want 10", v, ok)
	}
	if snap.T.CommitDepCount() != 0 {
		t.Fatal("snapshot reader should not depend on the preparing writer")
	}
	if err := snap.Commit(); err != nil {
		t.Fatalf("snapshot commit: %v", err)
	}
	gate.Release()
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}

func TestCascadingAbortThroughSpeculativeRead(t *testing.T) {
	// A reader that speculatively read a version of a transaction that then
	// aborts must abort too (Section 2.7: cascading aborts are possible).
	// Force the abort by failing validation: the writer is serializable and
	// its read gets invalidated while it is held in Preparing... simpler
	// and deterministic: use RequestAbort on the writer mid-prepare is not
	// possible (AbortNow is polled at wait points the writer has passed).
	// Instead, the reader speculates on a transaction blocked in its
	// *wait-for* phase and the deadlock detector kills it. Simplest fully
	// deterministic construction: writer blocked in synchronous log append
	// cannot abort anymore (it has passed validation), so speculate on a
	// validation-failing serializable writer instead, checking the reader's
	// AbortNow flag.
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 10))
	e.LoadRow(tbl, testPayload(2, 20))

	// Writer: serializable optimistic; reads key 2, updates key 1.
	writer := e.Begin(Optimistic, Serializable)
	if _, ok := readVal(t, writer, tbl, 2); !ok {
		t.Fatal("writer read failed")
	}
	if err := writeVal(t, writer, tbl, 1, 11); err != nil {
		t.Fatal(err)
	}
	// Invalidate the writer's read so its validation will fail.
	spoiler := e.Begin(Optimistic, ReadCommitted)
	if err := writeVal(t, spoiler, tbl, 2, 21); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, spoiler)

	// Sample the update eagerly with a speculative updater: another
	// transaction may update an uncommitted version once its creator has
	// completed normal processing. Here we only verify the cascade: commit
	// the writer (it fails validation and aborts) and check that a
	// dependent registered beforehand is told to abort.
	dep := e.Begin(Optimistic, ReadCommitted)
	if res := writer.T.RegisterDependent(dep.T); res != txn.DepAdded {
		t.Fatalf("RegisterDependent = %v", res)
	}
	if err := writer.Commit(); err != ErrValidation {
		t.Fatalf("writer commit = %v, want ErrValidation", err)
	}
	if !dep.T.AbortRequested() {
		t.Fatal("dependent not told to abort after cascade")
	}
	if err := dep.Commit(); err != ErrAborted {
		t.Fatalf("dependent commit = %v, want ErrAborted", err)
	}
	if e.Stats().CascadingAborts == 0 {
		t.Fatal("cascading abort not counted")
	}
}
