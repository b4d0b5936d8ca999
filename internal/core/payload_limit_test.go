//go:build !race

// The oversized payload below is a slice header over a 1-byte buffer, which
// the race build's pointer checks reject on creation; the engines return
// before reading a byte of it.

package core

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// TestPayloadTooLargeAllSchemes holds every scheme to one payload limit: an
// Insert, Update or UpdateWhere of a payload above storage.MaxPayload fails
// with ErrPayloadTooLarge and leaves the row as it was, and LoadRow of one
// panics.
func TestPayloadTooLargeAllSchemes(t *testing.T) {
	var b [1]byte
	huge := unsafe.Slice(&b[0], storage.MaxPayload+1)
	for _, scheme := range allSchemes {
		db, tbl := openTest(t, scheme)
		db.LoadRow(tbl, pay(1, 1))
		tx := db.Begin()
		if err := tx.Insert(tbl, huge); !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("%v: Insert: err = %v, want ErrPayloadTooLarge", scheme, err)
		}
		row, ok, err := tx.Lookup(tbl, 0, 1, nil)
		if err != nil || !ok {
			t.Fatalf("%v: Lookup: %v, %v", scheme, ok, err)
		}
		if err := tx.Update(tbl, row, huge); !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("%v: Update: err = %v, want ErrPayloadTooLarge", scheme, err)
		}
		if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func([]byte) []byte { return huge }); !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("%v: UpdateWhere: err = %v, want ErrPayloadTooLarge", scheme, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		tx = db.Begin()
		row, ok, err = tx.Lookup(tbl, 0, 1, nil)
		if err != nil || !ok || valOf(row.Payload()) != 1 || len(row.Payload()) != 16 {
			t.Errorf("%v: the row after the refused writes: %v, %v", scheme, ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: LoadRow took a payload above storage.MaxPayload", scheme)
				}
			}()
			db.LoadRow(tbl, huge)
		}()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
