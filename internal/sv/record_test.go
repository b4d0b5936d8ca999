package sv

import (
	"encoding/binary"
	"iter"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/iso"
	"repro/internal/storage"
)

func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	// 56 bytes: the 64 B size class, one cache line per record.
	if got := unsafe.Sizeof(Record{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 56", got)
	}
}

// TestRecordCacheLineAligned checks what the layout relies on: the 64-byte
// size class hands out 64-byte-aligned objects, so every loaded record is
// one hardware cache line.
func TestRecordCacheLineAligned(t *testing.T) {
	e := NewEngine(Config{})
	tbl, err := e.CreateTable(storage.TableSpec{Name: "t", Indexes: ovIndexes[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for pk := uint64(0); pk < 1000; pk++ {
		e.LoadRow(tbl, ovRow{pk, pk % ovHashDomain, pk}.payload())
	}
	for ord := range 2 {
		n := 0
		for r := range linkedRecordsSeq(tbl, ord) {
			if a := uintptr(unsafe.Pointer(r)); a%64 != 0 {
				t.Fatalf("record %d of index %d at %#x is not 64-byte aligned", n, ord, a)
			}
			n++
		}
		if n != 1000 {
			t.Fatalf("index %d links %d records, want 1000", ord, n)
		}
	}
}

// TestBucketSize pins the hash bucket at 16 bytes: the lock's state word and
// the chain head. The lock's wait machinery lives in the index's striped
// wait table, not in the bucket.
func TestBucketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(bucket{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(bucket{}) = %d, want 16", got)
	}
}

// ovRow is a row of the four-index overflow table: primary key pk, a hash
// attribute a and an ordered attribute b.
type ovRow struct{ pk, a, b uint64 }

func (r ovRow) payload() []byte {
	p := make([]byte, 24)
	binary.LittleEndian.PutUint64(p, r.pk)
	binary.LittleEndian.PutUint64(p[8:], r.a)
	binary.LittleEndian.PutUint64(p[16:], r.b)
	return p
}

func ovField(off int) func([]byte) uint64 {
	return func(p []byte) uint64 { return binary.LittleEndian.Uint64(p[off:]) }
}

// ovIndexes are the overflow table's indexes: ordinals 0 and 1 sit in the
// record's inline slots, 2 and 3 in its spill array.
var ovIndexes = []storage.IndexSpec{
	{Name: "pk", Key: ovField(0), Buckets: 64},
	{Name: "pk_ord", Key: ovField(0), Ordered: true},
	{Name: "a", Key: ovField(8), Buckets: 64},
	{Name: "b", Key: ovField(16), Ordered: true},
}

// ovHashDomain bounds every hash-index key the test writes.
const ovHashDomain = 64

// checkOverflowIndexes scans every index of tbl through tx and compares the
// visible rows, and each record's cached key, against model.
func checkOverflowIndexes(t *testing.T, step string, tx *Tx, tbl *Table, model map[uint64]ovRow) {
	t.Helper()
	for ord, spec := range ovIndexes {
		want := map[uint64][]uint64{}
		for _, r := range model {
			k := spec.Key(r.payload())
			want[k] = append(want[k], r.pk)
		}
		got := map[uint64][]uint64{}
		collect := func(rec *Record) bool {
			k := spec.Key(rec.Payload())
			if rec.link(ord).key != k {
				t.Errorf("%s: index %s caches key %d for a row whose key is %d", step, spec.Name, rec.link(ord).key, k)
			}
			got[k] = append(got[k], ovField(0)(rec.Payload()))
			return true
		}
		if spec.Ordered {
			last := uint64(0)
			err := tx.ScanRange(tbl, ord, 0, ^uint64(0), nil, func(rec *Record) bool {
				if k := spec.Key(rec.Payload()); k < last {
					t.Errorf("%s: index %s out of order: %d after %d", step, spec.Name, k, last)
				} else {
					last = k
				}
				return collect(rec)
			})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			for k := uint64(0); k < ovHashDomain; k++ {
				if err := tx.Scan(tbl, ord, k, nil, collect); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := range want {
			slices.Sort(want[k])
		}
		for k := range got {
			slices.Sort(got[k])
		}
		if len(got) != len(want) {
			t.Errorf("%s: index %s has %d keys, want %d (%v vs %v)", step, spec.Name, len(got), len(want), got, want)
			continue
		}
		for k, w := range want {
			if !slices.Equal(got[k], w) {
				t.Errorf("%s: index %s key %d holds %v, want %v", step, spec.Name, k, got[k], w)
			}
		}
	}
}

// linkedRecordsSeq yields the records physically linked into index ord,
// deleted ones included.
func linkedRecordsSeq(tbl *Table, ord int) iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		walk := func(head *Record) bool {
			for r := head; r != nil; r = r.link(ord).next {
				if !yield(r) {
					return false
				}
			}
			return true
		}
		switch ix := tbl.indexes[ord].(type) {
		case *hashIndex:
			for i := range ix.buckets {
				if !walk(ix.buckets[i].head) {
					return
				}
			}
		case *orderedIndex:
			for node := ix.list.Seek(0); node != nil; node = node.Next() {
				if !walk(node.V.head) {
					return
				}
			}
		}
	}
}

// linkedRecords counts the records physically linked into index ord,
// deleted ones included.
func linkedRecords(tbl *Table, ord int) int {
	n := 0
	for range linkedRecordsSeq(tbl, ord) {
		n++
	}
	return n
}

// TestRecordOverflowOrdinals drives a four-index table, whose ordinals 2 and
// 3 live in Record.more's spill array, through insert, a key-moving update on ordinal 3 and
// delete. Each step is checked inside its transaction, after its rollback,
// and after it is redone and committed.
func TestRecordOverflowOrdinals(t *testing.T) {
	e := NewEngine(Config{})
	tbl, err := e.CreateTable(storage.TableSpec{Name: "ov", Indexes: ovIndexes})
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]ovRow{}
	for pk := uint64(0); pk < 8; pk++ {
		r := ovRow{pk, pk % 4, 10 + pk}
		e.LoadRow(tbl, r.payload())
		model[pk] = r
	}

	steps := []struct {
		name  string
		apply func(tx *Tx) error
		after func(m map[uint64]ovRow)
	}{
		{"insert", func(tx *Tx) error {
			return tx.Insert(tbl, ovRow{8, 1, 12}.payload())
		}, func(m map[uint64]ovRow) { m[8] = ovRow{8, 1, 12} }},
		{"update b", func(tx *Tx) error {
			n, err := tx.UpdateWhere(tbl, 0, 3, nil, func([]byte) []byte { return ovRow{3, 3, 40}.payload() })
			if err == nil && n != 1 {
				t.Fatalf("update n=%d", n)
			}
			return err
		}, func(m map[uint64]ovRow) { m[3] = ovRow{3, 3, 40} }},
		{"delete", func(tx *Tx) error {
			n, err := tx.DeleteWhere(tbl, 3, 12, func(p []byte) bool { return ovField(0)(p) == 2 })
			if err == nil && n != 1 {
				t.Fatalf("delete n=%d", n)
			}
			return err
		}, func(m map[uint64]ovRow) { delete(m, 2) }},
	}
	for _, s := range steps {
		next := map[uint64]ovRow{}
		for k, v := range model {
			next[k] = v
		}
		s.after(next)

		tx := e.Begin(iso.ReadCommitted)
		if err := s.apply(tx); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkOverflowIndexes(t, s.name+" (in tx)", tx, tbl, next)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		tx = e.Begin(iso.ReadCommitted)
		checkOverflowIndexes(t, s.name+" (rolled back)", tx, tbl, model)
		if err := s.apply(tx); err != nil {
			t.Fatalf("%s redo: %v", s.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model = next
		tx = e.Begin(iso.ReadCommitted)
		checkOverflowIndexes(t, s.name+" (committed)", tx, tbl, model)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for ord, spec := range ovIndexes {
			if n := linkedRecords(tbl, ord); n != len(model) {
				t.Errorf("%s: index %s links %d records, want %d", s.name, spec.Name, n, len(model))
			}
		}
	}
}
