package wal

// The FaultFile fault matrix: each test injects one fault (a byte-granularity
// disk fault or a process kill) into a segment being written through a
// FaultFile and asserts the reader-side policy holds — torn tails (unsynced bytes destroyed at any
// offset) decode to the well-formed prefix with the loss counted, and a CRC
// mismatch inside the stream still fails hard with ErrCorrupt.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// newFaultSegment creates a real temp-file segment wrapped in a FaultFile
// and writes the segment header through it.
func newFaultSegment(t *testing.T, faults *Faults) (*FaultFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFile(f, faults)
	if _, err := ff.Write(SegmentHeader()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ff.Close() })
	return ff, path
}

func frame(t *testing.T, id uint64) []byte {
	t.Helper()
	return EncodeRecord(nil, testRecord(id, id))
}

// readSegment decodes the segment, returning the records and the torn-tail
// byte count; any error other than clean EOF fails the test.
func readSegment(t *testing.T, path string) ([]*Record, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d := NewReader(f)
	var recs []*Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return recs, d.Truncated()
		}
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		recs = append(recs, rec)
	}
}

func TestFaultFileWriteError(t *testing.T) {
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	faults.Arm(FaultFileWriteErr, 0)
	n, err := ff.Write(frame(t, 2))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = (%d, %v), want (0, ErrInjected)", n, err)
	}
	// The fault was transient at the file layer (the log above latches it);
	// a later write still lands and the stream stays well-formed.
	if _, err := ff.Write(frame(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, torn := readSegment(t, path)
	if len(recs) != 2 || recs[0].TxID != 1 || recs[1].TxID != 3 || torn != 0 {
		t.Fatalf("recovered %d records, torn=%d", len(recs), torn)
	}
}

func TestFaultFileShortWriteMidFrame(t *testing.T) {
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	faults.Arm(FaultFileShortWrite, 0)
	fr := frame(t, 2)
	n, err := ff.Write(fr)
	if err != io.ErrShortWrite || n >= len(fr) {
		t.Fatalf("Write = (%d, %v), want short count and ErrShortWrite", n, err)
	}
	ff.Close()
	// The torn frame is a tolerated tail, not corruption.
	recs, torn := readSegment(t, path)
	if len(recs) != 1 || recs[0].TxID != 1 {
		t.Fatalf("recovered %d records, want just txn 1", len(recs))
	}
	if torn != int64(n) {
		t.Fatalf("torn = %d bytes, want the short prefix %d", torn, n)
	}
}

func TestFaultFileENOSPCMidBatch(t *testing.T) {
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	// One group-commit batch of three frames, disk full partway in.
	batch := append(append(frame(t, 2), frame(t, 3)...), frame(t, 4)...)
	faults.Arm(FaultFileENOSPC, 0)
	n, err := ff.Write(batch)
	if !errors.Is(err, syscall.ENOSPC) || n >= len(batch) {
		t.Fatalf("Write = (%d, %v), want partial count and ENOSPC", n, err)
	}
	ff.Close()
	recs, torn := readSegment(t, path)
	// The batch prefix may contain whole frames (decoded) plus a torn one
	// (counted); nothing may be corrupt and txn 1 must survive.
	if len(recs) < 1 || recs[0].TxID != 1 {
		t.Fatalf("recovered %d records, first=%+v", len(recs), recs)
	}
	for i, rec := range recs {
		if rec.TxID != uint64(i+1) {
			t.Fatalf("record %d has TxID %d", i, rec.TxID)
		}
	}
	if whole := int64(len(frame(t, 1))); torn >= whole || (n > 0 && len(recs) == 1 && torn == 0) {
		t.Fatalf("torn = %d, inconsistent with a mid-batch tear", torn)
	}
}

func TestFaultFileSyncErrorThenCrash(t *testing.T) {
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Write(frame(t, 2)); err != nil {
		t.Fatal(err)
	}
	faults.Arm(FaultFileSyncErr, 0)
	if err := ff.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync = %v, want ErrInjected", err)
	}
	// fsyncgate: the dirty bytes (txn 2) are gone and the failure was
	// reported exactly once — the file keeps accepting writes and syncs.
	if size, synced := ff.Offsets(); size != synced {
		t.Fatalf("unsynced bytes survived the failed fsync: size=%d synced=%d", size, synced)
	}
	if _, err := ff.Write(frame(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatalf("retried fsync reported %v — the false-success trap is the point", err)
	}
	if err := ff.Crash(0); err != nil {
		t.Fatal(err)
	}
	recs, torn := readSegment(t, path)
	if len(recs) != 2 || recs[0].TxID != 1 || recs[1].TxID != 3 {
		t.Fatalf("recovered %v, want txns 1 and 3 (2 was dropped by the failed fsync)", recs)
	}
	if torn != 0 {
		t.Fatalf("torn = %d after crash at a frame boundary", torn)
	}
}

// TestFaultFileCrashAtEveryOffset places the power-loss cut at every byte
// offset of the unsynced region and asserts the reader policy at each:
// synced records always survive, the unsynced frame appears only when fully
// persisted, and no cut point ever reads as corruption.
func TestFaultFileCrashAtEveryOffset(t *testing.T) {
	fr2 := frame(t, 2)
	for keep := int64(0); keep <= int64(len(fr2)); keep++ {
		faults := NewFaults()
		ff, path := newFaultSegment(t, faults)
		if _, err := ff.Write(frame(t, 1)); err != nil {
			t.Fatal(err)
		}
		if err := ff.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := ff.Write(fr2); err != nil {
			t.Fatal(err)
		}
		if err := ff.Crash(keep); err != nil {
			t.Fatal(err)
		}
		if _, err := ff.Write(frame(t, 3)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("keep=%d: post-crash Write = %v, want ErrCrashed", keep, err)
		}
		if err := ff.Sync(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("keep=%d: post-crash Sync = %v, want ErrCrashed", keep, err)
		}
		recs, torn := readSegment(t, path)
		want := 1
		if keep == int64(len(fr2)) {
			want = 2
		}
		if len(recs) != want || recs[0].TxID != 1 {
			t.Fatalf("keep=%d: recovered %d records, want %d", keep, len(recs), want)
		}
		if want == 1 && torn != keep {
			t.Fatalf("keep=%d: torn = %d, want the whole kept prefix", keep, torn)
		}
	}
}

func TestFaultFileCrashDuringWrite(t *testing.T) {
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	faults.Arm(FaultFileCrash, 0)
	if _, err := ff.Write(frame(t, 2)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write during power loss = %v, want ErrCrashed", err)
	}
	if !ff.Crashed() {
		t.Fatal("file not marked crashed")
	}
	recs, _ := readSegment(t, path)
	if len(recs) != 1 || recs[0].TxID != 1 {
		t.Fatalf("synced txn 1 must survive the mid-write power loss; got %v", recs)
	}
}

// TestCorruptionStillFailsHard guards the other half of the policy: a flipped
// bit inside the synced region is not a torn tail and must surface as
// ErrCorrupt, fault layer or no fault layer.
func TestCorruptionStillFailsHard(t *testing.T) {
	ff, path := newFaultSegment(t, NewFaults())
	if _, err := ff.Write(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Write(frame(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatal(err)
	}
	ff.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(SegmentHeader())+10] ^= 0x40 // inside the first frame's body
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = ReadAll(f)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll = %v, want ErrCorrupt", err)
	}
}

// TestFaultFileProcessKill: wal.tear lands half of the Write that fires it
// and wal.freeze all of it; either way the call fails with ErrCrashed and
// so does every later one, and — unlike a power loss — every byte written
// before the kill survives, unsynced ones included.
func TestFaultFileProcessKill(t *testing.T) {
	for _, tc := range []struct {
		point string
		recs  int // records decodable after the kill
	}{
		{FaultWALTear, 2},
		{FaultWALFreeze, 3},
	} {
		t.Run(tc.point, func(t *testing.T) {
			faults := NewFaults()
			ff, path := newFaultSegment(t, faults)
			if _, err := ff.Write(frame(t, 1)); err != nil {
				t.Fatal(err)
			}
			if err := ff.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := ff.Write(frame(t, 2)); err != nil { // never synced
				t.Fatal(err)
			}
			before, _ := ff.Offsets()
			faults.Arm(tc.point, 0)
			fr := frame(t, 3)
			n, err := ff.Write(fr)
			if !errors.Is(err, ErrCrashed) || n == 0 || n > len(fr) {
				t.Fatalf("Write = (%d, %v), want a landed prefix and ErrCrashed", n, err)
			}
			if size, _ := ff.Offsets(); size != before+int64(n) {
				t.Fatalf("size after the kill = %d, want %d: the kill must keep every written byte", size, before+int64(n))
			}
			if _, err := ff.Write(frame(t, 4)); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Write after the kill = %v, want ErrCrashed", err)
			}
			if err := ff.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Sync after the kill = %v, want ErrCrashed", err)
			}
			ff.Close()
			if recs, _ := readSegment(t, path); len(recs) != tc.recs {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.recs)
			}
		})
	}
}

// TestFaultFileKillFile: a kill file fires only its own point. An armed
// file.* point keeps its countdown for the live segment, and the kill tears
// the Write that fires it.
func TestFaultFileKillFile(t *testing.T) {
	faults := NewFaults()
	path := filepath.Join(t.TempDir(), "part")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	kf := NewKillFile(f, faults, FaultCkptPartition)
	defer kf.Close()
	faults.Arm(FaultFileWriteErr, 0)
	faults.Arm(FaultFileSyncErr, 0)
	if _, err := kf.Write([]byte("abcd")); err != nil {
		t.Fatalf("Write = %v: a kill file must not fire file.* points", err)
	}
	if err := kf.Sync(); err != nil {
		t.Fatalf("Sync = %v: a kill file must not fire file.* points", err)
	}
	if !faults.Fire(FaultFileWriteErr) || !faults.Fire(FaultFileSyncErr) {
		t.Fatal("the kill file consumed a file.* countdown")
	}
	faults.Arm(FaultCkptPartition, 0)
	if n, err := kf.Write([]byte("efgh")); n != 2 || !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write = (%d, %v), want (2, ErrCrashed)", n, err)
	}
	if err := kf.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync after the kill = %v, want ErrCrashed", err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "abcdef" {
		t.Fatalf("file = %q, %v; want \"abcdef\"", raw, err)
	}
}
