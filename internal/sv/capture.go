package sv

import "repro/internal/iso"

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
// Like any 1V reader the capture can deadlock with concurrent writers; lock
// timeouts break the cycle, surfacing as an error here. Callers retry.
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
				if err := fn(t, r.link(0).key, r.payload); err != nil {
					return err
				}
			}
			return nil
		}
		switch ix := t.indexes[0].(type) {
		case *hashIndex:
			for i := range ix.buckets {
				b, ws := ix.bucketAt(uint64(i))
				if err := tx.lockS(&b.lock, ws); err != nil {
					return 0, err
				}
				if err := emitChain(b.head); err != nil {
					return 0, err
				}
			}
		case *orderedIndex:
			if err := tx.lockRange(&ix.rl, 0, ^uint64(0), false); err != nil {
				return 0, err
			}
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
