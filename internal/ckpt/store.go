// Package ckpt implements the durability subsystem around the redo log:
// a segmented on-disk log store, streaming checkpoints of committed state
// partitioned by primary-key range, and log truncation below the checkpoint's
// stable timestamp. Package recovery consumes the same store to restore
// checkpoint partitions in parallel and replay only the log tail.
//
// The store doubles as the crash-injection surface: a wal.Faults registry
// can arm named fault points (torn batch write, freeze between flush and
// ack, partial partition write, crash before the manifest pointer flips),
// and once any fault fires the store freezes — every subsequent write is
// silently discarded, which models a killed process whose acknowledgements
// after the crash point never happened. See docs/durability.md.
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// Fault points understood by the store. Arm them on the wal.Faults registry
// passed to SetFaults. The names are aliases into the central fault-point
// registry (wal/faults.go, enforced by mvlint's faultpoint analyzer).
const (
	// FaultWALTear tears a group-commit batch mid-write: a prefix of the
	// batch reaches the segment, then the store freezes. The tail of the
	// batch — typically mid-record — is the torn tail recovery tolerates.
	FaultWALTear = wal.FaultWALTear
	// FaultWALFreeze freezes after a batch fully reaches the segment: the
	// kill lands between the flush and later commit acknowledgements.
	FaultWALFreeze = wal.FaultWALFreeze
	// FaultPartWrite tears a checkpoint partition write and freezes: a crash
	// mid-checkpoint, before the manifest exists.
	FaultPartWrite = wal.FaultCkptPartition
	// FaultManifest freezes after the manifest file is written but before
	// CURRENT flips to it: the checkpoint is complete on disk yet invisible,
	// so recovery uses the previous checkpoint (or none).
	FaultManifest = wal.FaultCkptManifest
)

// ErrFrozen is returned by operations refused because the store froze at an
// injected crash point.
var ErrFrozen = fmt.Errorf("ckpt: store frozen (simulated crash)")

// StoreOptions selects how live segments are opened.
type StoreOptions struct {
	// Faults, when non-nil, wraps live segments in a wal.FaultFile driven by
	// this registry: the byte-granularity fault model (write errors, short
	// writes, ENOSPC, fsync errors, power loss) used by the sync-commit
	// crash suites. Store-level freeze faults (SetFaults) are independent
	// and may share the same registry.
	Faults *wal.Faults
}

// Store is a durability directory: numbered write-ahead-log segments (the
// live one receives group-commit batches via Write, making the store a
// core.Config.LogSink), checkpoint directories, and a CURRENT pointer naming
// the latest published checkpoint.
type Store struct {
	dir    string
	opts   StoreOptions
	faults *wal.Faults

	mu        sync.Mutex
	frozen    atomic.Bool
	err       error // first latched write/fsync failure; never cleared
	seg       wal.File
	segFault  *wal.FaultFile // seg's fault wrapper when opts.Faults != nil
	segPath   string
	segSize   int64 // bytes successfully handed to the live segment
	segSynced int64 // live-segment fsync barrier (bytes known durable)
	segSeq    uint64
	ckptSeq   uint64
}

// OpenStore opens (creating if needed) a store rooted at dir and starts a
// fresh live segment after any existing ones — reopening after a crash never
// appends to a possibly-torn segment.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, StoreOptions{})
}

// OpenStoreWith is OpenStore with explicit segment options.
func OpenStoreWith(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil && n > s.segSeq {
			s.segSeq = n
		}
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d", &n); err == nil && n > s.ckptSeq {
			s.ckptSeq = n
		}
	}
	if err := s.openSegmentLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetFaults attaches a crash-injection registry. Call before any load runs.
func (s *Store) SetFaults(f *wal.Faults) { s.faults = f }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) openSegmentLocked() error {
	s.segSeq++
	s.segPath = filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", s.segSeq))
	f, err := os.OpenFile(s.segPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var seg wal.File = f
	var segFault *wal.FaultFile
	if s.opts.Faults != nil {
		segFault = wal.NewFaultFile(f, s.opts.Faults)
		seg = segFault
	}
	if _, err := seg.Write(wal.SegmentHeader()); err != nil {
		seg.Close()
		return err
	}
	s.seg = seg
	s.segFault = segFault
	s.segSize = int64(len(wal.SegmentHeader()))
	s.segSynced = s.segSize
	return nil
}

// Write appends one group-commit batch to the live segment (io.Writer for
// wal.Log). Batches never straddle segments: rotation only happens between
// Write calls, under the same mutex. A frozen store reports success and
// discards the bytes — the modelled process is dead; nothing it "wrote"
// after the crash point exists.
func (s *Store) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return len(p), nil
	}
	if err := s.err; err != nil {
		return 0, err
	}
	if s.faults.Fire(FaultWALTear) {
		n := len(p) / 2
		if n == 0 && len(p) > 0 {
			n = 1
		}
		s.seg.Write(p[:n])
		s.latchLocked(s.seg.Sync())
		s.frozen.Store(true)
		return len(p), nil
	}
	if s.faults.Fire(FaultWALFreeze) {
		s.seg.Write(p)
		s.latchLocked(s.seg.Sync())
		s.frozen.Store(true)
		return len(p), nil
	}
	before := s.segSize
	n, err := s.seg.Write(p)
	s.segSize += int64(n)
	if err != nil {
		s.latchLocked(err)
		// A batch that fails partway leaves whole frames of transactions on
		// disk whose commits were all just refused — recovery would replay
		// them even though the engine aborted them and told the clients so.
		// Roll the segment back to the batch boundary: the store is latched,
		// nothing writes after this, and the disk again holds exactly the
		// acknowledged records. A power loss is different — the process
		// modelled here is dead and cleans up nothing, so the torn tail
		// stays for recovery's torn-tail reader (and markers) to resolve.
		if !errors.Is(err, wal.ErrCrashed) {
			s.rollbackLocked(before)
		}
		return n, err
	}
	return len(p), nil
}

// Sync forces the live segment's bytes to stable storage — the per-batch
// hook wal.Log calls at Fsync durability. A latched failure is returned
// without touching the file again: after a failed fsync the kernel may have
// dropped the dirty pages and cleared its error state, so a retry would
// falsely succeed (fsyncgate). A frozen store reports success, matching
// its Write contract (the modelled process is dead; nothing it observed
// after the crash point happened).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return nil
	}
	if err := s.err; err != nil {
		return err
	}
	if s.seg == nil {
		s.segSynced = s.segSize
		return nil
	}
	err := s.seg.Sync()
	s.latchLocked(err)
	if err == nil {
		s.segSynced = s.segSize
	} else if !errors.Is(err, wal.ErrCrashed) {
		// The kernel reported the batch's pages lost: the commits in it were
		// refused, so drop the suspect bytes back to the last barrier rather
		// than leave refused records for recovery to resurrect. Best effort —
		// the store is latched either way.
		s.rollbackLocked(s.segSynced)
	}
	return err
}

// rollbackLocked shrinks the live segment to off, dropping the bytes of a
// refused batch. It only ever shrinks: if the file already sits at or below
// off (a failing device may have dropped more than the batch — the fsyncgate
// model truncates to its own barrier), extending it would manufacture a
// zero-filled hole that reads as corruption. Callers hold s.mu.
func (s *Store) rollbackLocked(off int64) {
	fi, err := os.Stat(s.segPath)
	if err != nil || fi.Size() <= off {
		return
	}
	if terr := os.Truncate(s.segPath, off); terr == nil {
		s.segSize = off
	}
}

// latchLocked records the first durability failure; it is never cleared.
// Callers hold s.mu.
func (s *Store) latchLocked(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// latch is latchLocked for callers not holding s.mu.
func (s *Store) latch(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.latchLocked(err)
	s.mu.Unlock()
}

// Err returns the first latched write or fsync failure, or nil. A non-nil
// Err means the store can no longer promise durability; the checkpointer's
// health API surfaces it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Rotate seals the live segment (fsync + close) and starts the next one.
// The checkpointer rotates after flushing the log so that every record at
// or below the stable timestamp lives in sealed segments, which truncation
// may rewrite.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return nil
	}
	if err := s.err; err != nil {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		s.latchLocked(err)
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	if err := s.openSegmentLocked(); err != nil {
		// The old segment is sealed but the next one never opened: the store
		// has no live segment to write to, which is fatal, not transient.
		s.latchLocked(err)
		return err
	}
	return nil
}

// Freeze stops all future writes, modelling the crash instant. Load workers
// poll Frozen after each commit: an acknowledgement observed after the
// freeze may or may not be durable.
func (s *Store) Freeze() { s.frozen.Store(true) }

// Frozen reports whether the store froze.
func (s *Store) Frozen() bool { return s.frozen.Load() }

// Close fsyncs and closes the live segment. A frozen store's segment is
// closed without syncing (the sync would model I/O the dead process never
// issued; the bytes already written remain readable). A sync failure at
// close is latched and reported like any other — silently dropping it is
// the fsyncgate mistake.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	if !s.frozen.Load() && s.err == nil {
		s.latchLocked(s.seg.Sync())
	}
	err := s.seg.Close()
	s.seg = nil
	s.segFault = nil
	if err == nil {
		err = s.err
	}
	return err
}

// Crash simulates a power loss on the live segment: at most keep bytes past
// the last fsync barrier survive, the rest are discarded, and every later
// segment operation fails with wal.ErrCrashed. Only available on stores
// opened with StoreOptions.Faults (the byte-granularity crash model); it
// replaces Freeze for the sync-commit suites, where an acknowledgement must
// imply the bytes sit at or below the barrier.
func (s *Store) Crash(keep int64) error {
	s.mu.Lock()
	ff := s.segFault
	s.mu.Unlock()
	if ff == nil {
		return fmt.Errorf("ckpt: Crash requires StoreOptions.Faults")
	}
	return ff.Crash(keep)
}

// ChopTail truncates the live segment by n bytes: the "drop tail bytes"
// crash. It acts directly on the file — harness scalpel, not a store write —
// so it works on a frozen store.
func (s *Store) ChopTail(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, err := os.Stat(s.segPath)
	if err != nil {
		return err
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(s.segPath, size)
}

// SegmentPaths returns every log segment in sequence order, sealed segments
// first, the live one last.
func (s *Store) SegmentPaths() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil {
			paths = append(paths, filepath.Join(s.dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// CompactBelow rewrites sealed segments dropping every record with end
// timestamp at or below stable — the log truncation step of a checkpoint:
// those transactions' effects are in the checkpoint, so replaying them would
// be redundant (recovery filters on the stable timestamp anyway; truncation
// is what bounds log growth). Segments left empty are removed. The rewrite
// is atomic per segment (temp file + rename), so a crash mid-compaction
// leaves each segment either intact or fully compacted — both replay
// correctly. It returns the number of log bytes reclaimed.
func (s *Store) CompactBelow(stable uint64) (int64, error) {
	if s.frozen.Load() {
		return 0, ErrFrozen
	}
	paths, err := s.SegmentPaths()
	if err != nil {
		return 0, err
	}
	var reclaimed int64
	for _, path := range paths {
		if path == s.segPath {
			continue // never rewrite the live segment
		}
		n, err := s.compactSegment(path, stable)
		if err != nil {
			return reclaimed, err
		}
		reclaimed += n
	}
	return reclaimed, nil
}

func (s *Store) compactSegment(path string, stable uint64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	var keep []*wal.Record
	dropped := 0
	d := wal.NewReader(f)
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return 0, fmt.Errorf("ckpt: compacting %s: %w", path, err)
		}
		if rec.EndTS <= stable {
			dropped++
			continue
		}
		keep = append(keep, rec)
	}
	f.Close()
	if dropped == 0 {
		return 0, nil
	}
	if len(keep) == 0 {
		if err := os.Remove(path); err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	buf := wal.SegmentHeader()
	for _, rec := range keep {
		buf = wal.EncodeRecord(buf, rec)
	}
	if _, err := out.Write(buf); err != nil {
		out.Close()
		return 0, err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return fi.Size() - int64(len(buf)), nil
}

// nextCkptSeq reserves the next checkpoint sequence number.
func (s *Store) nextCkptSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptSeq++
	return s.ckptSeq
}

// faultFile routes a checkpoint file's writes through the store's
// freeze/fault state so a crash can land mid-partition.
type faultFile struct {
	s     *Store
	f     *os.File
	point string
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.s.frozen.Load() {
		return len(p), nil
	}
	if w.s.faults.Fire(w.point) {
		n := len(p) / 2
		if n == 0 && len(p) > 0 {
			n = 1
		}
		w.f.Write(p[:n])
		w.s.latch(w.f.Sync())
		w.s.Freeze()
		return len(p), nil
	}
	return w.f.Write(p)
}

// publishCheckpoint writes the manifest into the checkpoint directory and
// flips CURRENT to it. Both steps are write-temp-then-rename, so CURRENT
// always names a directory whose manifest is complete; the FaultManifest
// point freezes between the two renames, leaving a complete but unpublished
// checkpoint.
func (s *Store) publishCheckpoint(dirName string, man *Manifest) error {
	if s.frozen.Load() {
		return ErrFrozen
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	manPath := filepath.Join(s.dir, dirName, "manifest.json")
	if err := writeFileSync(manPath, raw); err != nil {
		return err
	}
	if s.faults.Fire(FaultManifest) {
		s.Freeze()
		return ErrFrozen
	}
	if s.frozen.Load() {
		return ErrFrozen
	}
	return writeFileSync(filepath.Join(s.dir, "CURRENT"), []byte(dirName+"\n"))
}

// writeFileSync writes data to path atomically: temp file, fsync, rename.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LatestManifest returns the most recently published checkpoint's manifest
// and directory path, or (nil, "", nil) when no checkpoint has been
// published.
func (s *Store) LatestManifest() (*Manifest, string, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, "CURRENT"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	dirName := strings.TrimSpace(string(raw))
	dir := filepath.Join(s.dir, dirName)
	manRaw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, "", fmt.Errorf("ckpt: CURRENT names %s but its manifest is unreadable: %w", dirName, err)
	}
	var man Manifest
	if err := json.Unmarshal(manRaw, &man); err != nil {
		return nil, "", fmt.Errorf("ckpt: manifest in %s: %w", dirName, err)
	}
	return &man, dir, nil
}
