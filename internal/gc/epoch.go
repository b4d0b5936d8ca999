package gc

import "sync/atomic"

// Epoch is a lightweight epoch-based reclamation guard for lock-free readers
// that no watermark can see: the single-version engine's skip-list
// traversals (1V has no timestamps at all). The multiversion engine needs
// none — its collector pins its rounds in the reader-pin table the GC
// watermark already reads. Epoch reuses the ReaderPins slot table: readers
// publish the epoch they entered under, reclaimers stamp unlinked nodes with
// an advanced epoch, and a stamped node may be freed only once every
// published pin exceeds its stamp.
//
// Protocol (all operations are Go atomics, hence sequentially consistent):
//
//	reader:    p := clock.Load() + 1      // pin value
//	           pins.Acquire(p)            // publish BEFORE any node access
//	           ... traverse ...
//	           pins.Release(slot)
//	reclaimer: unlink node from every level
//	           s := clock.Add(1)          // stamp, AFTER the unlink stores
//	           ... later ...
//	           free if Quiesced(s):  unpinned == 0 && pins.Min(clock) > s
//
// Safety: a reader whose pin the quiescence scan observed has p > s, so its
// clock load followed the Add that produced s, which in turn followed the
// unlink stores — the traversal can no longer reach the node. A reader the
// scan missed published its pin after the scan's slot load, so every one of
// its traversal loads is ordered after the unlink stores too. Either way no
// reader that can still reach the node survives a successful Quiesced(s).
//
// When the slot table overflows, Enter falls back to a plain counter of
// unpinned readers; any nonzero count blocks quiescence entirely (safe,
// just slower to reclaim).
type Epoch struct {
	clock    atomic.Uint64
	pins     ReaderPins
	unpinned atomic.Int64
}

// Init sizes the pin slot table (DefaultPinSlots when n <= 0). Must be
// called before the epoch is shared.
func (e *Epoch) Init(n int) { e.pins.Init(n) }

// Enter pins the current epoch and returns the slot to pass to Exit. A
// negative slot means the table was full and the reader is counted in the
// unpinned fallback instead.
func (e *Epoch) Enter() int {
	p := e.clock.Load() + 1
	slot := e.pins.Acquire(p)
	if slot < 0 {
		e.unpinned.Add(1)
	}
	return slot
}

// Exit releases a pin returned by Enter. The reader must have dropped every
// node pointer obtained while pinned.
func (e *Epoch) Exit(slot int) {
	if slot < 0 {
		e.unpinned.Add(-1)
		return
	}
	e.pins.Release(slot)
}

// Stamp advances the epoch and returns its new value. Reclaimers call this
// after unlinking a batch of nodes; the returned stamp tags the batch.
func (e *Epoch) Stamp() uint64 { return e.clock.Add(1) }

// Quiesced reports whether every reader that could hold a node stamped at
// stamp has exited: no unpinned-fallback reader is active and every
// published pin exceeds the stamp. Note that a stamp quiesces only after a
// later Stamp call (the bound is the current clock), giving each batch at
// least one full epoch of grace.
func (e *Epoch) Quiesced(stamp uint64) bool {
	if e.unpinned.Load() != 0 {
		return false
	}
	return e.pins.Min(e.clock.Load()) > stamp
}

// Overflows reports how many Enter calls fell back to the unpinned counter.
func (e *Epoch) Overflows() uint64 { return e.pins.Overflows() }
