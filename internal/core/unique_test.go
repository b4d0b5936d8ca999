package core

import (
	"errors"
	"testing"
)

// TestInsertDuplicateKeyAllSchemes holds every scheme to one primary-key
// contract: a second insert of a key fails with ErrDuplicateKey whether the
// first is the transaction's own or committed by another, the key then still
// has exactly one row, and a row the transaction deleted no longer holds its
// key.
func TestInsertDuplicateKeyAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		db, tbl := openTest(t, scheme)
		rows := func(key uint64) int {
			t.Helper()
			tx := db.Begin()
			defer tx.Abort()
			n := 0
			if err := tx.Scan(tbl, 0, key, nil, func(Row) bool { n++; return true }); err != nil {
				t.Fatalf("%v: scan %d: %v", scheme, key, err)
			}
			return n
		}

		tx := db.Begin()
		if err := tx.Insert(tbl, pay(5, 1)); err != nil {
			t.Fatalf("%v: first insert: %v", scheme, err)
		}
		if err := tx.Insert(tbl, pay(5, 2)); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("%v: second insert in one transaction: err = %v, want ErrDuplicateKey", scheme, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if n := rows(5); n != 0 {
			t.Fatalf("%v: key 5 has %d rows after the abort, want 0", scheme, n)
		}

		tx = db.Begin()
		if err := tx.Insert(tbl, pay(7, 1)); err != nil {
			t.Fatalf("%v: insert: %v", scheme, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx = db.Begin()
		if err := tx.Insert(tbl, pay(7, 2)); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("%v: insert of a committed key: err = %v, want ErrDuplicateKey", scheme, err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if n := rows(7); n != 1 {
			t.Fatalf("%v: key 7 has %d rows, want 1", scheme, n)
		}

		tx = db.Begin()
		if _, err := tx.DeleteWhere(tbl, 0, 7, nil); err != nil {
			t.Fatalf("%v: delete: %v", scheme, err)
		}
		if err := tx.Insert(tbl, pay(7, 3)); err != nil {
			t.Fatalf("%v: reinsert of a key the transaction deleted: %v", scheme, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := rows(7); n != 1 {
			t.Fatalf("%v: key 7 has %d rows after delete and reinsert, want 1", scheme, n)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
