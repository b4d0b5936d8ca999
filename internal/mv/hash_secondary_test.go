package mv

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestHashSecondaryCollisions runs a hash index on ordinal 1 with 4 buckets
// and 16 distinct keys, so every bucket chain mixes four keys and a walk
// must filter on the key computed from each version's payload (only the
// primary key is cached in the version). Point scans find exactly their
// key's rows on both schemes at every isolation level; an update that moves
// a row to a colliding key is seen by both keys' scans; and an optimistic
// serializable scan's commit-time rescan flags an insert of its own key as a
// phantom but not an insert of a colliding key.
func TestHashSecondaryCollisions(t *testing.T) {
	const keys, rows = 16, 64
	grp := func(p []byte) uint64 { return payloadVal(p) % keys }
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{Name: "t", Indexes: []storage.IndexSpec{
		{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
		{Name: "grp", Key: grp, Buckets: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		e.LoadRow(tbl, testPayload(k, k)) // key k%16: four rows per key
	}
	count := func(tx *Tx, g uint64) int {
		t.Helper()
		n := 0
		err := tx.Scan(tbl, 1, g, nil, func(v *storage.Version) bool {
			if got := grp(v.Payload()); got != g {
				t.Fatalf("scan of key %d returned a row of key %d", g, got)
			}
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// g and g2 share a bucket: the chain walked for g holds g2's rows too.
	slots := storage.NewBucketMap(4)
	g, g2 := uint64(0), uint64(1)
	for slots.Slot(g2) != slots.Slot(g) {
		g2++
	}
	for _, scheme := range []Scheme{Optimistic, Pessimistic} {
		for _, level := range []Isolation{ReadCommitted, RepeatableRead, SnapshotIsolation, Serializable} {
			tx := e.Begin(scheme, level)
			for k := uint64(0); k < keys; k++ {
				if n := count(tx, k); n != rows/keys {
					t.Fatalf("scheme %v level %v: key %d has %d rows, want %d", scheme, level, k, n, rows/keys)
				}
			}
			mustCommit(t, tx)
		}
	}

	// Move one row of g to the colliding g2.
	tx := e.Begin(Pessimistic, Serializable)
	moved := false
	n, err := tx.UpdateWhere(tbl, 1, g, nil, func(old []byte) []byte {
		if moved {
			return old
		}
		moved = true
		return testPayload(payloadKey(old), payloadVal(old)-g+g2)
	})
	if err != nil || n != rows/keys {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	mustCommit(t, tx)
	tx = e.Begin(Optimistic, SnapshotIsolation)
	if a, b := count(tx, g), count(tx, g2); a != rows/keys-1 || b != rows/keys+1 {
		t.Fatalf("after the move: key %d has %d rows, key %d has %d", g, a, g2, b)
	}
	mustCommit(t, tx)

	// A colliding insert is not a phantom of g's scan; an insert of g is.
	next := uint64(rows)
	insert := func(val uint64) {
		t.Helper()
		w := e.Begin(Optimistic, SnapshotIsolation)
		if err := w.Insert(tbl, testPayload(next, val)); err != nil {
			t.Fatal(err)
		}
		next++
		mustCommit(t, w)
	}
	for _, c := range []struct {
		val     uint64
		phantom bool
	}{{g2, false}, {g, true}} {
		tx := e.Begin(Optimistic, Serializable)
		count(tx, g)
		insert(c.val)
		err := tx.Commit()
		if c.phantom != errors.Is(err, ErrValidation) {
			t.Fatalf("insert of key %d under a scan of key %d: commit = %v, phantom expected %v", c.val, g, err, c.phantom)
		}
	}
}
