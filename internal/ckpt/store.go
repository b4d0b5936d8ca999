// Package ckpt implements the durability subsystem around the redo log:
// a segmented on-disk log store, streaming checkpoints of committed state
// partitioned by primary-key range, and log truncation below the checkpoint's
// stable timestamp. Package recovery consumes the same store to restore
// checkpoint partitions in parallel and replay only the log tail.
//
// The store doubles as the crash-injection surface: with a wal.Faults
// registry in StoreOptions, every file it writes goes through a
// wal.FaultFile, and a fault that crashes the process latches the store
// with wal.ErrCrashed, so every later write, sync and checkpoint step fails
// instead of acknowledging anything. See docs/durability.md.
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

	"repro/internal/wal"
)

// The checkpoint's fault points. Arm them on the registry in StoreOptions.
// The names are aliases into the central fault-point registry (wal/faults.go,
// enforced by mvlint's faultpoint analyzer).
const (
	// FaultPartWrite kills the process mid-write on a checkpoint partition
	// file, before the manifest exists. Only partition files count it.
	FaultPartWrite = wal.FaultCkptPartition
	// FaultManifest kills the process after the manifest file is written but
	// before CURRENT flips to it: the checkpoint is complete on disk yet
	// invisible, so recovery uses the previous checkpoint (or none).
	FaultManifest = wal.FaultCkptManifest
)

// StoreOptions selects how the store's files are opened.
type StoreOptions struct {
	// Faults, when non-nil, is the crash-injection registry: live segments
	// are wrapped in a wal.FaultFile (file.*, wal.tear, wal.freeze),
	// partition files in a wal.NewKillFile (FaultPartWrite), and the store
	// fires FaultManifest itself.
	Faults *wal.Faults
}

// Store is a durability directory: numbered write-ahead-log segments (the
// live one receives group-commit batches via Write, making the store a
// core.Config.LogSink), checkpoint directories, and a CURRENT pointer naming
// the latest published checkpoint.
type Store struct {
	dir  string
	opts StoreOptions

	mu        sync.Mutex
	err       error // first latched write/fsync failure or crash; never cleared
	seg       wal.File
	segPath   string
	segSize   int64 // bytes successfully handed to the live segment
	segSynced int64 // live-segment fsync barrier (bytes known durable)
	segSeq    uint64
	ckptSeq   uint64
}

// OpenStore opens (creating if needed) a store rooted at dir and starts a
// fresh live segment after any existing ones — reopening after a crash never
// appends to a possibly-torn segment. The new directory and segment are
// durable entries before OpenStore returns.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, StoreOptions{})
}

// OpenStoreWith is OpenStore with explicit segment options.
func OpenStoreWith(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if n, ok := nameSeq(e.Name(), segName); ok && n > s.segSeq {
			s.segSeq = n
		}
		if n, ok := nameSeq(e.Name(), ckptName); ok && n > s.ckptSeq {
			s.ckptSeq = n
		}
	}
	if err := s.openSegmentLocked(); err != nil {
		_ = s.Close() // the store is discarded; err is the failure to report
		return nil, err
	}
	return s, nil
}

// The names the store gives its log segments and checkpoint directories.
const (
	segName  = "wal-%06d.log"
	ckptName = "ckpt-%06d"
)

// nameSeq returns n when name is exactly fmt.Sprintf(format, n), a name the
// store made. Any other name reports false, so a stray file such as a
// crash's leftover wal-000001.log.tmp is never taken for a segment or a
// checkpoint.
func nameSeq(name, format string) (uint64, bool) {
	var n uint64
	_, err := fmt.Sscanf(name, strings.Replace(format, "%06d", "%d", 1), &n)
	return n, err == nil && fmt.Sprintf(format, n) == name
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// openSegmentLocked creates the next live segment and syncs the store's
// directory, so the segment's entry is durable before any batch written to
// it is acknowledged.
func (s *Store) openSegmentLocked() error {
	s.segSeq++
	s.segPath = filepath.Join(s.dir, fmt.Sprintf(segName, s.segSeq))
	f, err := os.OpenFile(s.segPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var seg wal.File = f
	if s.opts.Faults != nil {
		seg = wal.NewFaultFile(f, s.opts.Faults)
	}
	if _, err := seg.Write(wal.SegmentHeader()); err != nil {
		seg.Close()
		return err
	}
	s.seg = seg
	s.segSize = int64(len(wal.SegmentHeader()))
	s.segSynced = s.segSize
	return syncDir(s.dir)
}

// Write appends one group-commit batch to the live segment (io.Writer for
// wal.Log). Batches never straddle segments: rotation only happens between
// Write calls, under the same mutex. A latched store refuses the batch.
func (s *Store) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.err; err != nil {
		return 0, err
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
		// acknowledged records. A crash (power loss or process kill) is
		// different — the process modelled here is dead and cleans up
		// nothing, so whatever of the batch landed stays for recovery's
		// torn-tail reader (and markers) to resolve.
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
// falsely succeed (fsyncgate).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// Err returns the first latched write or fsync failure or injected crash
// (wal.ErrCrashed), or nil. A non-nil Err means the store can no longer
// promise durability; every later Checkpointer.Run returns it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Rotate seals the live segment (fsync + close) and starts the next one.
// The checkpointer rotates after flushing the log so that every record at
// or below the stable timestamp lives in sealed segments, which truncation
// may remove.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		// The old segment is sealed but the next one never opened, or its
		// entry may not be durable: the store has no live segment it can
		// acknowledge writes in, which is fatal, not transient.
		s.latchLocked(err)
		return err
	}
	return nil
}

// Close fsyncs and closes the live segment. A latched store's segment is
// closed without syncing (after a crash the sync would model I/O the dead
// process never issued; the bytes already written remain readable). A sync
// failure at close is latched and reported like any other — silently
// dropping it is the fsyncgate mistake.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	if s.err == nil {
		s.latchLocked(s.seg.Sync())
	}
	err := s.seg.Close()
	s.seg = nil
	if err == nil {
		err = s.err
	}
	return err
}

// ChopTail truncates the live segment by n bytes: the "drop tail bytes"
// crash. It acts directly on the file — harness scalpel, not a store write —
// so it works on a closed or latched store.
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
		if _, ok := nameSeq(e.Name(), segName); ok {
			paths = append(paths, filepath.Join(s.dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// retire deletes what the checkpoint dirName, just published, supersedes.
// With compact set it truncates the log below stable: each sealed segment
// whose records are all at or below stable (their effects are in the
// checkpoint) is removed, and any other is left whole. A segment that
// straddles stable, at most the one sealed by this Run, goes at a later Run
// whose stable timestamp passes its last record; until then recovery
// filters its records at or below stable out. Then every other checkpoint
// directory goes, older checkpoints and those of Runs that failed before
// publishing alike: recovery reads only the one CURRENT names. One sync of
// the root makes every removal durable. It returns the log bytes reclaimed.
func (s *Store) retire(dirName string, stable uint64, compact bool) (int64, error) {
	if err := s.Err(); err != nil {
		return 0, err
	}
	var reclaimed int64
	if compact {
		paths, err := s.SegmentPaths()
		if err != nil {
			return 0, err
		}
		for _, path := range paths {
			if path == s.segPath {
				continue // never remove the live segment
			}
			n, err := removeIfBelow(path, stable)
			if err != nil {
				return reclaimed, err
			}
			reclaimed += n
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return reclaimed, err
	}
	removed := false
	for _, e := range entries {
		if _, ok := nameSeq(e.Name(), ckptName); ok && e.IsDir() && e.Name() != dirName {
			if err := os.RemoveAll(filepath.Join(s.dir, e.Name())); err != nil {
				return reclaimed, err
			}
			removed = true
		}
	}
	if reclaimed > 0 || removed {
		if err := s.syncDirLatched(s.dir); err != nil {
			return reclaimed, err
		}
	}
	return reclaimed, nil
}

// removeIfBelow removes the sealed segment at path when every record in it
// is at or below stable, returning its size; otherwise it leaves the
// segment as it is and returns 0.
func removeIfBelow(path string, stable uint64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	d := wal.NewReader(f)
	for {
		rec, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("ckpt: truncating %s: %w", path, err)
		}
		if rec.EndTS > stable {
			return 0, nil
		}
	}
	if err := os.Remove(path); err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// nextCkptSeq reserves the next checkpoint sequence number.
func (s *Store) nextCkptSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptSeq++
	return s.ckptSeq
}

// createPart creates a checkpoint partition file. On a store with a fault
// registry it is a wal.FaultFile whose only fault is the FaultPartWrite kill.
func (s *Store) createPart(path string) (wal.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if s.opts.Faults != nil {
		return wal.NewKillFile(f, s.opts.Faults, FaultPartWrite), nil
	}
	return f, nil
}

// latchCrash latches err when it is an injected crash of a checkpoint file,
// so the store refuses every later step as it does after a crash of the
// live segment. It returns err.
func (s *Store) latchCrash(err error) error {
	if errors.Is(err, wal.ErrCrashed) {
		s.latch(err)
	}
	return err
}

// publishCheckpoint writes the manifest into the checkpoint directory and
// flips CURRENT to it. Both steps are write-temp-then-rename followed by a
// sync of the renamed file's directory, so CURRENT always names a directory
// whose manifest is complete and durable, and the flip itself is durable
// before log truncation starts. The FaultManifest point kills the process
// between the two renames, leaving a complete but unpublished checkpoint.
func (s *Store) publishCheckpoint(dirName string, man *Manifest) error {
	if err := s.Err(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	manPath := filepath.Join(s.dir, dirName, "manifest.json")
	if err := s.writeFileSync(manPath, raw); err != nil {
		return err
	}
	if s.opts.Faults.Fire(FaultManifest) {
		s.latch(wal.ErrCrashed)
	}
	if err := s.Err(); err != nil {
		return err
	}
	return s.writeFileSync(filepath.Join(s.dir, "CURRENT"), []byte(dirName+"\n"))
}

// writeFileSync writes data to path atomically and durably: temp file,
// fsync, rename, directory sync.
func (s *Store) writeFileSync(path string, data []byte) error {
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
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return s.syncDirLatched(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries created, renamed or removed
// in it durable: fsync(2) on a file does not persist its directory entry. It
// is a variable so tests can record the calls or fail them.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDirLatched syncs dir and latches a failure like a failed fsync: the
// store can no longer promise that its namespace matches what it
// acknowledged. A latched store returns its error without syncing.
func (s *Store) syncDirLatched(dir string) error {
	if err := s.Err(); err != nil {
		return err
	}
	err := syncDir(dir)
	s.latch(err)
	return err
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
