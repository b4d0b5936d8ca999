package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
)

// File is the handle the durability layer holds on a live log segment: the
// subset of *os.File it actually uses. Production code passes *os.File
// straight through; tests substitute a *FaultFile to inject byte-granularity
// disk faults without touching the code under test.
type File interface {
	io.Writer
	Syncer
	io.Closer
}

// Backing is what a FaultFile wraps: a File that can also be truncated to a
// byte offset and sought, because both fsync failure and power loss are
// modelled as a suffix of the file disappearing — and after dropping the
// suffix the write position must move back with it, or the next write would
// leave a hole. *os.File satisfies it.
type Backing interface {
	File
	io.Seeker
	Truncate(size int64) error
}

// The FaultFile fault points (FaultFileWriteErr, FaultFileShortWrite,
// FaultFileENOSPC, FaultFileSyncErr, FaultFileCrash, FaultWALTear,
// FaultWALFreeze and the kill point of a NewKillFile) are declared in the
// central fault-point registry in faults.go. Arm them on the Faults registry
// the FaultFile was built with; each fires at byte granularity inside a
// single Write or Sync call.

// ErrInjected is the sentinel wrapped by every error a FaultFile invents;
// match with errors.Is to distinguish injected faults from real I/O errors.
var ErrInjected = errors.New("wal: injected fault")

// ErrCrashed is returned by every FaultFile operation after a simulated
// crash (power loss or process kill): nothing succeeds, nothing is
// acknowledged.
var ErrCrashed = fmt.Errorf("wal: simulated crash: %w", ErrInjected)

// FaultFile wraps a Backing file and injects faults into its calls, driven
// by a Faults countdown registry. It is the one crash model of the
// durability layer: a fault either fails a single call (the file keeps
// working) or crashes the file, after which every operation returns
// ErrCrashed. It tracks two offsets: size (bytes handed to the backing
// file) and synced (the last successful fsync barrier). A power loss
// destroys bytes above the barrier; a process kill destroys nothing that
// reached the file, synced or not.
type FaultFile struct {
	mu     sync.Mutex
	f      Backing
	faults *Faults
	// kill, when set, is the file's only fault point: a process kill that
	// lands half of the Write that fires it. A live segment leaves it empty
	// and fires every other point.
	kill   string
	size   int64
	synced int64
	closed bool
	crash  bool
}

// NewFaultFile wraps a live log segment: the byte-granularity faults
// (file.*) and the process kills wal.tear and wal.freeze fire in its calls.
// A nil registry yields a transparent pass-through.
func NewFaultFile(f Backing, faults *Faults) *FaultFile {
	return &FaultFile{f: f, faults: faults}
}

// NewKillFile wraps a file whose only fault is a process kill at point (a
// checkpoint partition file: ckpt.partition). Its calls leave the countdowns
// of every other point alone.
func NewKillFile(f Backing, faults *Faults, point string) *FaultFile {
	return &FaultFile{f: f, faults: faults, kill: point}
}

// Write appends p, unless a fault fires inside it.
func (w *FaultFile) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crash {
		return 0, ErrCrashed
	}
	if w.kill != "" {
		if w.faults.Fire(w.kill) {
			return w.killLocked(w.writePrefix(p))
		}
		return w.write(p)
	}
	if w.faults.Fire(FaultWALTear) {
		return w.killLocked(w.writePrefix(p))
	}
	if w.faults.Fire(FaultWALFreeze) {
		n, _ := w.write(p)
		return w.killLocked(n)
	}
	if w.faults.Fire(FaultFileWriteErr) {
		return 0, fmt.Errorf("write %s: %w", FaultFileWriteErr, ErrInjected)
	}
	if w.faults.Fire(FaultFileShortWrite) {
		n := w.writePrefix(p)
		return n, io.ErrShortWrite
	}
	if w.faults.Fire(FaultFileENOSPC) {
		n := w.writePrefix(p)
		return n, syscall.ENOSPC
	}
	if w.faults.Fire(FaultFileCrash) {
		// Power cut mid-write: a prefix of this buffer made it to the page
		// cache, then half of the unsynced region — an arbitrary, possibly
		// mid-record offset — survived to the platter.
		w.writePrefix(p)
		w.crashLocked((w.size - w.synced) / 2)
		return 0, ErrCrashed
	}
	return w.write(p)
}

// write hands p to the backing file and counts what it took.
func (w *FaultFile) write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// killLocked ends the process mid-call: the n bytes the call wrote stay,
// as does everything before them, and the call and every later one fail.
func (w *FaultFile) killLocked(n int) (int, error) {
	w.crash = true
	return n, ErrCrashed
}

// writePrefix writes the first half of p (at least one byte when p is
// non-empty) to the backing file, for torn-write faults.
func (w *FaultFile) writePrefix(p []byte) int {
	n := len(p) / 2
	if n == 0 && len(p) > 0 {
		n = 1
	}
	m, _ := w.f.Write(p[:n])
	w.size += int64(m)
	return m
}

// Sync advances the fsync barrier, unless a fault fires.
func (w *FaultFile) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crash {
		return ErrCrashed
	}
	if w.kill == "" && w.faults.Fire(FaultFileSyncErr) {
		// fsyncgate: the failure is reported exactly once and the dirty
		// pages are gone. The file remains usable — which is the trap: a
		// retried fsync here would succeed and prove nothing.
		w.discardTo(w.synced)
		return fmt.Errorf("sync %s: %w", FaultFileSyncErr, ErrInjected)
	}
	if w.kill == "" && w.faults.Fire(FaultFileCrash) {
		w.crashLocked(0)
		return ErrCrashed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.size
	return nil
}

// Close closes the backing file. It works even after a crash so harnesses
// can release the descriptor and reopen the directory for recovery.
func (w *FaultFile) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Crash simulates a power loss now: at most keep bytes of the unsynced
// region survive (clamped to [0, unsynced]), everything above is discarded,
// and every subsequent operation returns ErrCrashed. Harnesses call it
// directly to place a torn tail at an arbitrary byte offset.
func (w *FaultFile) Crash(keep int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crash {
		return nil
	}
	return w.crashLocked(keep)
}

func (w *FaultFile) crashLocked(keep int64) error {
	if keep < 0 {
		keep = 0
	}
	if unsynced := w.size - w.synced; keep > unsynced {
		keep = unsynced
	}
	w.crash = true
	return w.discardTo(w.synced + keep)
}

// discardTo truncates the backing file to off and moves the write position
// with it, so the file models lost bytes, not a zero-filled hole.
func (w *FaultFile) discardTo(off int64) error {
	w.size = off
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	_, err := w.f.Seek(off, io.SeekStart)
	return err
}

// Crashed reports whether a simulated power loss has occurred.
func (w *FaultFile) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crash
}

// Offsets returns the written size and the fsync barrier, for tests
// asserting exactly which bytes a fault destroyed.
func (w *FaultFile) Offsets() (size, synced int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size, w.synced
}
