package sv

import (
	"math"
	"time"

	"repro/internal/iso"
	"repro/internal/storage"
)

// captureWait bounds the capture's lock waits: not at all. The capture
// takes only shared locks, in one ascending pass, so every wait cycle it
// joins also contains a writer waiting for a shared lock the capture holds,
// and that writer's own LockTimeout breaks the cycle.
const captureWait = time.Duration(math.MaxInt64)

// Capture streams a transactionally consistent snapshot of the given tables
// to fn and returns the stable sequence number S: the snapshot contains the
// effects of exactly the committed writers with end sequence at most S.
//
// Single-version records carry no timestamps, so consistency comes from the
// lock protocol instead: the capture runs as a read transaction that
// shared-locks every bucket (hash indexes) or the whole key range (ordered
// indexes) of each table's primary index and holds the locks until the scan
// completes — plain strict two-phase locking, which serializes the capture
// against every writer. S is the end-sequence counter read at the end of the
// scan, while all locks are still held: a writer serialized before the
// capture drew its end sequence before releasing the locks the capture then
// acquired (so its sequence is <= S, and its redo record was appended before
// that release), and a writer serialized after blocks on the capture's locks
// until after S is read (so its sequence is > S). Either way the snapshot
// boundary and the log agree.
//
// The capture waits out the writers it meets instead of timing out (see
// captureWait), so it fails only when fn does. Its one cost: it cannot
// finish while a 1V write transaction holding a lock it needs stays open.
//
// The payload passed to fn is valid only during the callback.
func (e *Engine) Capture(tables []*Table, fn func(t *Table, key uint64, payload []byte) error) (uint64, error) {
	tx := e.Begin(iso.Serializable)
	defer tx.rollback() // release every lock; the capture writes nothing

	for _, t := range tables {
		emitChain := func(head *Record) error {
			for r := head; r != nil; r = r.link(0).next {
				if r.deleted {
					continue
				}
				if err := fn(t, r.link(0).key, r.Payload()); err != nil {
					return err
				}
			}
			return nil
		}
		switch ix := t.indexes[0].(type) {
		case *hashIndex:
			for i := range ix.buckets {
				b, ws := ix.bucketAt(uint64(i))
				if err := b.lock.acquireS(tx.id, captureWait, ws); err != nil {
					return 0, err
				}
				tx.registered(&b.lock, ws).s++
				if err := emitChain(b.head); err != nil {
					return 0, err
				}
			}
		case *orderedIndex:
			if !ix.rl.Acquire(0, ^uint64(0), tx.id, false, captureWait) {
				return 0, ErrLockTimeout
			}
			tx.heldRanges = append(tx.heldRanges, storage.RangeHold{Table: &ix.rl, Lo: 0, Hi: ^uint64(0)})
			for n := ix.list.Seek(0); n != nil; n = n.Next() {
				if err := emitChain(n.V.head); err != nil {
					return 0, err
				}
			}
		}
	}
	// All locks are held: no writer is between its end-sequence draw and its
	// lock release, so the counter cleanly splits writers into "captured"
	// and "after the checkpoint".
	return e.endSeq.Current(), nil
}

// AdvanceSequences raises the transaction-ID and end-sequence counters to at
// least past. Recovery calls it so post-recovery transactions order strictly
// after every recovered commit, mirroring ts.Oracle.AdvanceTo on the
// multiversion engines.
func (e *Engine) AdvanceSequences(past uint64) {
	for {
		cur := e.txSeq.Load()
		if cur >= past || e.txSeq.CompareAndSwap(cur, past) {
			break
		}
	}
	e.endSeq.AdvanceTo(past)
}
