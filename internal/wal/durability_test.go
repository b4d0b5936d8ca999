package wal

// Durability-level and lifecycle-race tests for the group-commit log: the
// Fsync acknowledgement contract (ack follows the batch fsync, amortized),
// the fsyncgate policy (a failed fsync is latched fatal and never retried),
// and the Append/Close race regression.

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncSink is an in-memory sink that separates written from synced bytes
// and remembers where every record frame ends, so a test can ask whether a
// given record is below the sync barrier. It can fail its Sync exactly once,
// and a Sync can be made to take time so committers pile up behind it.
type syncSink struct {
	delay    time.Duration
	mu       sync.Mutex
	written  int
	synced   int
	syncs    int
	ends     map[uint64]int // TxID -> offset one past the record's last byte
	failNext bool
	err      error
}

func (s *syncSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ends == nil {
		s.ends = make(map[uint64]int)
	}
	for off := 0; off < len(p); {
		txid := binary.LittleEndian.Uint64(p[off+8:]) // length, crc, then TxID
		off += 4 + int(binary.LittleEndian.Uint32(p[off:]))
		s.ends[txid] = s.written + off
	}
	s.written += len(p)
	return len(p), nil
}

// durable reports whether txid's record lies wholly below the sync barrier.
func (s *syncSink) durable(txid uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	end, ok := s.ends[txid]
	return ok && end <= s.synced
}

func (s *syncSink) Sync() error {
	time.Sleep(s.delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	if s.failNext {
		s.failNext = false
		return s.err
	}
	s.synced = s.written
	return nil
}

func (s *syncSink) counts() (written, synced, syncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written, s.synced, s.syncs
}

func TestFsyncDurabilityAcks(t *testing.T) {
	// The first waiter's fsync takes a millisecond, so the other committers
	// pile up behind it and share the next ones.
	sink := &syncSink{delay: time.Millisecond}
	l := Open(Config{Sink: sink, Durability: Fsync, BatchSize: 8})
	var wg sync.WaitGroup
	const n = 64
	for i := uint64(1); i <= n; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			if err := l.Append(testRecord(i, i)); err != nil {
				t.Error(err)
				return
			}
			// The acknowledgement promise: at the instant Append returns,
			// this record's bytes are at or below the sink's sync barrier.
			if !sink.durable(i) {
				t.Errorf("record %d acked above the sync barrier", i)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Syncs == 0 || st.Syncs != st.Batches {
		t.Fatalf("syncs=%d batches=%d, want one fsync per batch", st.Syncs, st.Batches)
	}
	if st.Syncs >= n {
		t.Fatalf("%d fsyncs for %d records: group commit amortized nothing", st.Syncs, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, syncs := sink.counts()
	if uint64(syncs) != st.Syncs {
		t.Fatalf("sink saw %d syncs, log counted %d", syncs, st.Syncs)
	}
}

func TestFsyncCappedWithoutSyncer(t *testing.T) {
	// A sink with no Sync method silently caps Fsync at Flush semantics.
	sink := &errSink{}
	l := Open(Config{Sink: sink, Durability: Fsync, BatchSize: 1})
	if err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("syncs=%d on a sink that cannot sync", st.Syncs)
	}
	l.Close()
}

func TestFsyncErrorLatchedNeverRetried(t *testing.T) {
	sink := &syncSink{failNext: true, err: errors.New("EIO: lost page writeback")}
	l := Open(Config{Sink: sink, Durability: Fsync, BatchSize: 1, FlushInterval: time.Millisecond})
	if err := l.Append(testRecord(1, 1)); !errors.Is(err, sink.err) {
		t.Fatalf("Append during failed fsync = %v, want the fsync error", err)
	}
	if err := l.Err(); !errors.Is(err, sink.err) {
		t.Fatalf("Err() = %v", err)
	}
	_, _, before := sink.counts()
	if before != 1 {
		t.Fatalf("%d sync attempts before latch, want 1", before)
	}
	// Everything after the latch fails fast and — per the fsyncgate policy —
	// the sink's Sync is NEVER called again: a retry would falsely succeed
	// over dropped pages.
	for i := uint64(2); i < 10; i++ {
		if err := l.Append(testRecord(i, i)); !errors.Is(err, sink.err) {
			t.Fatalf("Append %d after latch = %v", i, err)
		}
	}
	l.Flush()
	l.Close()
	if _, _, after := sink.counts(); after != before {
		t.Fatalf("sink.Sync called %d more times after a failed fsync", after-before)
	}
}

// TestAppendCloseRace is the regression test for the send-on-closed-channel
// panic: Append used to check closed under mu but send on l.ch after
// unlocking, so a concurrent Close could close the channel mid-send. Run
// with -race; before the fix this panicked within a handful of rounds.
func TestAppendCloseRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		l := Open(Config{Sink: &errSink{}, BatchSize: 4, FlushInterval: time.Microsecond})
		var closed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := uint64(1); ; i++ {
					if err := l.Append(testRecord(i, i)); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Append: %v", err)
						}
						if !closed.Load() {
							t.Error("ErrClosed before Close ran")
						}
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				l.Flush()
			}
		}()
		closed.Store(true)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}
