package mv

// TestFigure1Scenario replays the paper's Figure 1: transaction 75 transfers
// $20 from Larry's account to John's. While the transaction is active, its
// ID sits in the End fields of the old versions (as a write lock) and in the
// Begin fields of the new versions; after it commits with end timestamp 100,
// postprocessing replaces both with 100 (the red values in the figure).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
)

func accountRow(name string, amount uint64) []byte {
	p := make([]byte, 16)
	copy(p, name)
	binary.LittleEndian.PutUint64(p[8:], amount)
	return p
}

func accountName(p []byte) string {
	return string(bytes.TrimRight(p[:8], "\x00"))
}

func accountAmount(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }

// nameKey hashes on the first letter, like the figure's toy hash function.
func nameKey(p []byte) uint64 { return uint64(p[0]) }

func TestFigure1Scenario(t *testing.T) {
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.TableSpec{
		Name:    "accounts",
		Indexes: []storage.IndexSpec{{Name: "name", Key: nameKey, Buckets: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Figure 1's committed state: (John, 110) and (Larry, 170) are the
	// latest versions; Jane has (Jane, 150).
	e.LoadRow(tbl, accountRow("John", 110))
	e.LoadRow(tbl, accountRow("Jane", 150))
	e.LoadRow(tbl, accountRow("Larry", 170))

	// Transaction 75 transfers $20 from Larry to John.
	tx75 := e.Begin(Optimistic, Serializable)
	johnOld, ok, err := tx75.Lookup(tbl, 0, nameKey([]byte("J")), func(p []byte) bool {
		return accountName(p) == "John"
	})
	if err != nil || !ok {
		t.Fatalf("John lookup: ok=%v err=%v", ok, err)
	}
	larryOld, ok, err := tx75.Lookup(tbl, 0, nameKey([]byte("L")), func(p []byte) bool {
		return accountName(p) == "Larry"
	})
	if err != nil || !ok {
		t.Fatalf("Larry lookup: ok=%v err=%v", ok, err)
	}
	if err := tx75.Update(tbl, johnOld, accountRow("John", 130)); err != nil {
		t.Fatal(err)
	}
	if err := tx75.Update(tbl, larryOld, accountRow("Larry", 150)); err != nil {
		t.Fatal(err)
	}

	// Mid-flight, exactly as in the figure: the old versions' End fields
	// hold transaction 75's ID (a write lock identifying the updater)...
	for _, old := range []*storage.Version{johnOld, larryOld} {
		w := old.End()
		if !field.IsLock(w) || field.Writer(w) != tx75.T.ID() {
			t.Fatalf("old version End = %x, want lock word with tx75's ID", w)
		}
	}
	// ...and the new versions' Begin fields hold its ID too. Find the new
	// John version in bucket J.
	var johnNew *storage.Version
	for v := tbl.Index(0).Lookup(nameKey([]byte("J"))).Head(); v != nil; v = v.Next(0) {
		if accountName(v.Payload()) == "John" && accountAmount(v.Payload()) == 130 {
			johnNew = v
		}
	}
	if johnNew == nil {
		t.Fatal("new John version not linked into bucket J")
	}
	if bw := johnNew.Begin(); field.IsTS(bw) || field.TxID(bw) != tx75.T.ID() {
		t.Fatalf("new version Begin = %x, want tx75's ID", johnNew.Begin())
	}
	if ew := johnNew.End(); !field.IsTS(ew) || field.TS(ew) != field.Infinity {
		t.Fatalf("new version End = %x, want infinity", johnNew.End())
	}

	// Jane's version is untouched.
	jane, ok, err := tx75.Lookup(tbl, 0, nameKey([]byte("J")), func(p []byte) bool {
		return accountName(p) == "Jane"
	})
	if err != nil || !ok || accountAmount(jane.Payload()) != 150 {
		t.Fatal("Jane's version disturbed")
	}

	// A concurrent reader still sees the old balances (the transfer is
	// uncommitted).
	reader := e.Begin(Optimistic, ReadCommitted)
	j, _, _ := reader.Lookup(tbl, 0, nameKey([]byte("J")), func(p []byte) bool {
		return accountName(p) == "John"
	})
	if accountAmount(j.Payload()) != 110 {
		t.Fatalf("concurrent reader sees %d, want 110", accountAmount(j.Payload()))
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	// Commit: transaction 75 gets its end timestamp and postprocessing
	// propagates it into the Begin and End fields (the figure's red 100s).
	if err := tx75.Commit(); err != nil {
		t.Fatal(err)
	}
	endTS := tx75.T.End()
	if bw := johnNew.Begin(); !field.IsTS(bw) || field.TS(bw) != endTS {
		t.Fatalf("new version Begin = %x, want timestamp %d", johnNew.Begin(), endTS)
	}
	for _, old := range []*storage.Version{johnOld, larryOld} {
		if ew := old.End(); !field.IsTS(ew) || field.TS(ew) != endTS {
			t.Fatalf("old version End = %x, want timestamp %d", old.End(), endTS)
		}
	}

	// The money moved.
	after := e.Begin(Optimistic, ReadCommitted)
	j2, _, _ := after.Lookup(tbl, 0, nameKey([]byte("J")), func(p []byte) bool {
		return accountName(p) == "John"
	})
	l2, _, _ := after.Lookup(tbl, 0, nameKey([]byte("L")), func(p []byte) bool {
		return accountName(p) == "Larry"
	})
	if accountAmount(j2.Payload()) != 130 || accountAmount(l2.Payload()) != 150 {
		t.Fatalf("post-commit balances John=%d Larry=%d, want 130/150",
			accountAmount(j2.Payload()), accountAmount(l2.Payload()))
	}
	if err := after.Commit(); err != nil {
		t.Fatal(err)
	}
}
