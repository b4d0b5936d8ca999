package wal

import "sync"

// Faults is a crash-injection registry: named fault points armed with a
// countdown. Durability code (the log sink, the checkpoint writer) calls
// Fire(point) at each crash-relevant step; the call reports true exactly once,
// when the armed countdown for that point reaches zero. Production paths pass
// a nil *Faults, which never fires, so injection costs one nil check.
//
// The registry lives in package wal because the log sink is the innermost
// fault site; internal/ckpt shares the same registry for its checkpoint-side
// points, so one harness can seed a whole crash scenario.
type Faults struct {
	mu   sync.Mutex
	arms map[string]int
}

// The central fault-point registry: every name ever passed to Arm or Fire,
// across the whole tree, is declared here. mvlint's faultpoint analyzer
// enforces membership, so a typo'd point can never arm a fault that never
// fires and silently turn a crash scenario into a no-crash run. When adding
// a fault point, declare it in this block and reference the constant (or an
// alias of it, like ckpt.FaultManifest) at the arm/hit sites.
//
//mvlint:faultregistry
const (
	// FaultFileWriteErr fails a Write outright: no bytes reach the file and
	// the caller sees ErrInjected. Models a transient I/O error.
	FaultFileWriteErr = "file.writeerr"
	// FaultFileShortWrite writes only a prefix of the buffer and returns
	// io.ErrShortWrite with the short count — a torn frame mid-batch.
	FaultFileShortWrite = "file.shortwrite"
	// FaultFileENOSPC writes a prefix of the buffer and returns
	// syscall.ENOSPC: the disk filled mid-batch.
	FaultFileENOSPC = "file.enospc"
	// FaultFileSyncErr fails a Sync and drops every byte written since the
	// last successful sync — the fsyncgate semantics: the kernel reports the
	// failure once, discards the dirty pages, and a retried fsync would
	// falsely succeed over the hole. The file itself keeps working.
	FaultFileSyncErr = "file.syncerr"
	// FaultFileCrash is a power loss. During a Write it lets half of the
	// buffer reach the file, then discards half of whatever sits past the
	// last fsync barrier (a torn, partially-persisted page cache); during a
	// Sync it discards everything past the barrier. Either way the device is
	// then gone: every later operation returns ErrCrashed, so nothing can be
	// acknowledged after the lights went out.
	FaultFileCrash = "file.crash"
	// FaultWALTear is a process kill mid-write on a live segment: half of
	// the batch reaches the file, then the Write and every later operation
	// fail with ErrCrashed. Unlike a power loss, every byte written before
	// the kill survives, synced or not.
	FaultWALTear = "wal.tear"
	// FaultWALFreeze is a process kill just after a batch's Write: the whole
	// batch reaches the file, but the call fails with ErrCrashed, so no
	// commit in it is acknowledged.
	FaultWALFreeze = "wal.freeze"
	// FaultCkptPartition is a process kill mid-write on a checkpoint
	// partition file (see NewKillFile): a crash during checkpoint capture.
	FaultCkptPartition = "ckpt.partition"
	// FaultCkptManifest is a process kill after a checkpoint's manifest is
	// written but before the CURRENT pointer flips to it.
	FaultCkptManifest = "ckpt.manifest"
)

// NewFaults returns an empty registry with every point disarmed.
func NewFaults() *Faults {
	return &Faults{arms: make(map[string]int)}
}

// Arm schedules fault point to fire on its (after+1)-th Fire call. Re-arming
// replaces any previous schedule for the point.
func (f *Faults) Arm(point string, after int) {
	f.mu.Lock()
	f.arms[point] = after
	f.mu.Unlock()
}

// Disarm removes any schedule for point.
func (f *Faults) Disarm(point string) {
	f.mu.Lock()
	delete(f.arms, point)
	f.mu.Unlock()
}

// Fire records one hit of the fault point and reports whether the fault
// triggers now. A nil registry never fires.
func (f *Faults) Fire(point string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, armed := f.arms[point]
	if !armed {
		return false
	}
	if n > 0 {
		f.arms[point] = n - 1
		return false
	}
	delete(f.arms, point)
	return true
}
