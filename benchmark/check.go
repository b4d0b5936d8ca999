package main

import (
	"bytes"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// checkChunk is how many keys one checking transaction reads: small enough
// that a 1V reader's lock footprint stays bounded.
const checkChunk = 256

// checkDenseKeys verifies the hash-table invariant of update-uniform and
// durable: exactly one visible row per key 0..n-1, whose key field is the
// index key it was found under.
func checkDenseKeys(db *core.Database, tbl *core.Table, n uint64) error {
	_, err := dumpDenseKeys(db, tbl, n, false)
	return err
}

// dumpDenseKeys runs the checkDenseKeys pass and, when keep is set, returns
// the n row payloads concatenated in key order.
func dumpDenseKeys(db *core.Database, tbl *core.Table, n uint64, keep bool) ([]byte, error) {
	var dump []byte
	if keep {
		dump = make([]byte, 0, n*workload.RowSize)
	}
	for lo := uint64(0); lo < n; lo += checkChunk {
		hi := min(lo+checkChunk, n)
		tx := db.BeginReadOnly()
		for key := lo; key < hi; key++ {
			rows, bad := 0, false
			err := tx.Scan(tbl, 0, key, nil, func(r core.Row) bool {
				rows++
				p := r.Payload()
				if len(p) != workload.RowSize || workload.RowKey(p) != key {
					bad = true
				}
				if keep && rows == 1 {
					dump = append(dump, p...)
				}
				return true
			})
			if err != nil || rows != 1 || bad {
				_ = tx.Abort() // read-only: nothing to lose, the check already failed
				return nil, fmt.Errorf("key %d: %d visible rows, key field mismatch=%v, err=%v", key, rows, bad, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("check reader [%d,%d): %w", lo, hi, err)
		}
	}
	return dump, nil
}

// checkRanges verifies the ordered-index invariant of range: every scan of
// [lo,hi] returns strictly ascending keys inside the interval and exactly
// hi-lo+1 rows. The intervals tile 0..n-1, so the pass also proves that no
// key is missing or duplicated.
func checkRanges(db *core.Database, tbl *core.Table, n uint64) error {
	for lo := uint64(0); lo < n; lo += checkChunk {
		hi := min(lo+checkChunk, n) - 1
		tx := db.Begin(core.WithIsolation(core.Serializable))
		rows, next := uint64(0), lo
		var bad error
		err := tx.ScanRange(tbl, 0, lo, hi, nil, func(r core.Row) bool {
			k := workload.RowKey(r.Payload())
			if k < next || k > hi {
				bad = fmt.Errorf("scan [%d,%d]: key %d out of order or range (expected >= %d)", lo, hi, k, next)
				return false
			}
			next = k + 1
			rows++
			return true
		})
		if err == nil && bad == nil && rows != hi-lo+1 {
			bad = fmt.Errorf("scan [%d,%d]: %d rows, want %d", lo, hi, rows, hi-lo+1)
		}
		if err != nil || bad != nil {
			_ = tx.Abort() // read-only: nothing to lose, the check already failed
			if err != nil {
				return fmt.Errorf("scan [%d,%d]: %w", lo, hi, err)
			}
			return bad
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("check scanner [%d,%d]: %w", lo, hi, err)
		}
	}
	return nil
}

// recoverAndCompare is durable's check: every commit the workers were
// acknowledged must be in the database recovery rebuilds from the store. It
// dumps the original table, closes database and store, recovers a fresh
// database of the same scheme from the directory, and compares row for row.
func recoverAndCompare(db *core.Database, tbl *core.Table, store *ckpt.Store, scheme core.Scheme, n uint64, dir string) error {
	want, err := dumpDenseKeys(db, tbl, n, true)
	if err != nil {
		return fmt.Errorf("dump before close: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close database: %w", err)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return compareRecovered(want, scheme, n, dir)
}

func compareRecovered(want []byte, scheme core.Scheme, n uint64, dir string) error {
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	defer func() { _ = store.Close() }() // only read from: no write or sync error to lose
	db, err := core.Open(core.Config{Scheme: scheme})
	if err != nil {
		return err
	}
	defer db.Close() // no log: nothing to flush
	tbl, err := workload.Table(db, n)
	if err != nil {
		return err
	}
	if _, err := recovery.Recover(db, recovery.TableSet{tbl.Name(): tbl}, store, recovery.Options{}); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	got, err := dumpDenseKeys(db, tbl, n, true)
	if err != nil {
		return fmt.Errorf("recovered table: %w", err)
	}
	if !bytes.Equal(got, want) {
		for k := uint64(0); k < n; k++ {
			a, b := got[k*workload.RowSize:(k+1)*workload.RowSize], want[k*workload.RowSize:(k+1)*workload.RowSize]
			if !bytes.Equal(a, b) {
				return fmt.Errorf("recovered row %d = %x, original = %x", k, a, b)
			}
		}
	}
	return nil
}
