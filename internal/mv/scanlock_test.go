package mv

// A serializable MV/L scan keeps the rows it reads stable through its scan
// lock (bucket or range), not through a read lock per row: it read-locks a
// row only when another transaction already holds the row's write lock, and
// a writer that deletes a row under the lock, or moves its key out from
// under it, waits for the scanner as an inserter does.

import (
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/storage"
)

// valueIndexedEngine returns an engine whose table has a hash primary index
// and an ordered secondary index on the row's value.
func valueIndexedEngine(t *testing.T) (*Engine, *storage.Table) {
	t.Helper()
	e := NewEngine(Config{DeadlockInterval: -1})
	tbl, err := e.CreateTable(storage.TableSpec{
		Name: "t",
		Indexes: []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
			{Name: "val", Key: payloadVal, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, tbl
}

// scanVersions runs a range scan on index ord and returns the versions it
// visited.
func scanVersions(t *testing.T, tx *Tx, tbl *storage.Table, ord int, lo, hi uint64) []*storage.Version {
	t.Helper()
	var vs []*storage.Version
	if err := tx.ScanRange(tbl, ord, lo, hi, nil, func(v *storage.Version) bool {
		vs = append(vs, v)
		return true
	}); err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	return vs
}

// readLockCount returns the number of read locks on v (an End word holding
// a timestamp carries none).
func readLockCount(v *storage.Version) int {
	w := v.End()
	if field.IsTS(w) {
		return 0
	}
	return field.Readers(w)
}

// commitsAfter checks that writer owes exactly one wait-for dependency, that
// its commit waits while scanner is active, and that once scanner commits
// the writer commits with a larger end timestamp.
func commitsAfter(t *testing.T, writer, scanner *Tx) {
	t.Helper()
	if n := writer.T.WaitForCount(); n != 1 {
		t.Fatalf("writer WaitForCount = %d, want 1", n)
	}
	type result struct {
		end uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		end, err := writer.CommitTS()
		done <- result{end, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("writer committed (end %d, err %v) while the scanner was active", r.end, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	scanEnd, err := scanner.CommitTS()
	if err != nil {
		t.Fatalf("scanner commit: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("writer commit: %v", r.err)
		}
		if r.end <= scanEnd {
			t.Fatalf("writer end %d not after scanner end %d", r.end, scanEnd)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer still blocked after the scanner committed")
	}
}

// TestScanLockRowsNotReadLocked: a serializable scan takes no read lock on
// the rows it returns; a repeatable-read scan, which has no scan lock,
// read-locks every one.
func TestScanLockRowsNotReadLocked(t *testing.T) {
	for _, c := range []struct {
		iso     Isolation
		readers int
	}{{Serializable, 0}, {RepeatableRead, 1}} {
		t.Run(c.iso.String(), func(t *testing.T) {
			e, tbl := newOrderedTestEngine(t)
			for k := uint64(0); k < 10; k++ {
				e.LoadRow(tbl, testPayload(k, k))
			}
			tx := e.Begin(Pessimistic, c.iso)
			vs := scanVersions(t, tx, tbl, 0, 0, 9)
			if len(vs) != 10 {
				t.Fatalf("scan returned %d rows, want 10", len(vs))
			}
			for _, v := range vs {
				if got := readLockCount(v); got != c.readers {
					t.Fatalf("row %d: Readers = %d, want %d", payloadKey(v.Payload()), got, c.readers)
				}
			}
			mustCommit(t, tx)
		})
	}
}

// TestScanLockReadLocksForeignWrite: a row another active transaction has
// already write-locked may have been locked before the scan lock existed,
// so the serializable scan read-locks it, charging the writer its wait-for
// dependency. The other rows stay unlocked.
func TestScanLockReadLocksForeignWrite(t *testing.T) {
	e, tbl := newOrderedTestEngine(t)
	for k := uint64(0); k < 10; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	writer := e.Begin(Pessimistic, ReadCommitted)
	if n, err := writer.DeleteWhere(tbl, 0, 5, nil); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if n := writer.T.WaitForCount(); n != 0 {
		t.Fatalf("writer WaitForCount = %d before the scan, want 0", n)
	}
	scanner := e.Begin(Pessimistic, Serializable)
	vs := scanVersions(t, scanner, tbl, 0, 0, 9)
	if len(vs) != 10 {
		t.Fatalf("scan returned %d rows, want 10 (the delete is uncommitted)", len(vs))
	}
	for _, v := range vs {
		want := 0
		if payloadKey(v.Payload()) == 5 {
			want = 1
		}
		if got := readLockCount(v); got != want {
			t.Fatalf("row %d: Readers = %d, want %d", payloadKey(v.Payload()), got, want)
		}
	}
	commitsAfter(t, writer, scanner)
}

// TestScanLockDeleteWaitsForRangeScanner: deleting a row inside a held
// range lock makes the deleter wait for the scanner.
func TestScanLockDeleteWaitsForRangeScanner(t *testing.T) {
	e, tbl := newOrderedTestEngine(t)
	for k := uint64(0); k < 10; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	scanner := e.Begin(Pessimistic, Serializable)
	if vs := scanVersions(t, scanner, tbl, 0, 0, 9); len(vs) != 10 {
		t.Fatalf("scan returned %d rows, want 10", len(vs))
	}
	writer := e.Begin(Pessimistic, ReadCommitted)
	if n, err := writer.DeleteWhere(tbl, 0, 5, nil); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	commitsAfter(t, writer, scanner)
}

// TestScanLockKeyMoveWaitsForRangeScanner: an update that moves a row's
// ordered key out of a held range makes the updater wait for the scanner,
// although the new key lies outside every scan lock.
func TestScanLockKeyMoveWaitsForRangeScanner(t *testing.T) {
	e, tbl := valueIndexedEngine(t)
	for k := uint64(0); k < 10; k++ {
		e.LoadRow(tbl, testPayload(k, k))
	}
	scanner := e.Begin(Pessimistic, Serializable)
	if vs := scanVersions(t, scanner, tbl, 1, 0, 9); len(vs) != 10 {
		t.Fatalf("scan returned %d rows, want 10", len(vs))
	}
	writer := e.Begin(Pessimistic, ReadCommitted)
	if err := writeVal(t, writer, tbl, 5, 500); err != nil {
		t.Fatal(err)
	}
	commitsAfter(t, writer, scanner)
}

// TestScanLockBucketLookupThenDelete: the hash-index analogue — a
// serializable point Lookup bucket-locks the key instead of read-locking
// the row, and a Delete of that row waits for the reader.
func TestScanLockBucketLookupThenDelete(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(5, 50))
	scanner := e.Begin(Pessimistic, Serializable)
	v, ok, err := scanner.Lookup(tbl, 0, 5, nil)
	if err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	if got := readLockCount(v); got != 0 {
		t.Fatalf("Readers = %d after a serializable lookup, want 0", got)
	}
	if b := tbl.Index(0).Lookup(5); b.LockCount() != 1 {
		t.Fatalf("LockCount = %d, want the lookup's bucket lock", b.LockCount())
	}
	writer := e.Begin(Pessimistic, ReadCommitted)
	if n, err := writer.DeleteWhere(tbl, 0, 5, nil); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	commitsAfter(t, writer, scanner)
}
