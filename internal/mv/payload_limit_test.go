//go:build !race

// The oversized payload below is a slice header over a 1-byte buffer, which
// the race build's pointer checks reject on creation; the engine returns
// before reading a byte of it.

package mv

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// TestPayloadTooLarge: a payload above storage.MaxPayload, whose length a
// version's length word cannot hold, is refused by Insert and Update with
// ErrPayloadTooLarge.
func TestPayloadTooLarge(t *testing.T) {
	e, tbl := newTestEngine(t)
	e.LoadRow(tbl, testPayload(1, 1))
	var b [1]byte
	huge := unsafe.Slice(&b[0], storage.MaxPayload+1)
	tx := e.Begin(Optimistic, SnapshotIsolation)
	if err := tx.Insert(tbl, huge); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Insert: err = %v, want ErrPayloadTooLarge", err)
	}
	old, ok, err := tx.Lookup(tbl, 0, 1, nil)
	if err != nil || !ok {
		t.Fatalf("Lookup: %v, %v", ok, err)
	}
	if err := tx.Update(tbl, old, huge); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Update: err = %v, want ErrPayloadTooLarge", err)
	}
	mustCommit(t, tx)
}
