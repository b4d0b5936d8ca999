package wal

// Tests for the staging-batch pipeline: the flush policy (a waiting committer
// makes its batch due, Async records ride the tick and BatchSize, the tick
// keeps its cadence across a flush, a Flush call does not wait for it, a
// closed-loop cohort of committers shares one fsync and the hold that gathers
// it is bounded and released), the acknowledgement
// contract at Fsync (durable before return, this batch's outcome and never the
// global latch), backpressure on a full batch, and the allocation-free Async
// append.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A committer that waits makes its batch due: with the tick an hour away, one
// Append at Flush or Fsync returns at once, its bytes written (and synced at
// Fsync) by one batch.
func TestStagingWaiterKicksFlusher(t *testing.T) {
	for _, level := range []Durability{Flush, Fsync} {
		t.Run(level.String(), func(t *testing.T) {
			sink := &syncSink{}
			l := Open(Config{Sink: sink, Durability: level, FlushInterval: time.Hour})
			acked := make(chan error, 1)
			go func() { acked <- l.Append(testRecord(1, 1)) }()
			select {
			case err := <-acked:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a waiting Append sat out the tick")
			}
			written, synced, _ := sink.counts()
			if written == 0 || (level == Fsync) != (synced == written) {
				t.Fatalf("at %v: written=%d synced=%d", level, written, synced)
			}
			if st := l.Stats(); st.Batches != 1 {
				t.Fatalf("batches=%d, want 1", st.Batches)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Async records do not wake the flusher: with the tick an hour away they stay
// staged until a Flush call or the BatchSize crossing.
func TestStagingAsyncRidesTheTick(t *testing.T) {
	sink := &syncSink{}
	l := Open(Config{Sink: sink, BatchSize: 4, FlushInterval: time.Hour})
	appendN := func(from, to uint64) {
		for i := from; i <= to; i++ {
			if err := l.Append(testRecord(i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(1, 3)
	time.Sleep(20 * time.Millisecond)
	if st := l.Stats(); st.Flushed != 0 {
		t.Fatalf("flushed=%d before Flush, BatchSize or the tick", st.Flushed)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Flushed != 3 {
		t.Fatalf("flushed=%d after Flush, want 3", st.Flushed)
	}
	appendN(4, 7) // the fourth record of the new batch reaches BatchSize
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Flushed != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("flushed=%d: the full batch waited for the tick", l.Stats().Flushed)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// The tick keeps its cadence: one that fires while the flusher is inside a
// write is kept, so the Async batch staged meanwhile goes out as soon as the
// flusher is free instead of a full interval after the previous flush ended,
// as it would with a timer re-armed after each flush.
func TestStagingTickDuringFlushIsKept(t *testing.T) {
	const interval = 200 * time.Millisecond
	sink := &gateSink{entered: make(chan struct{}, 4), gate: make(chan struct{})}
	l := Open(Config{Sink: sink, FlushInterval: interval})
	if err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the first tick has batch 1 inside Write
	if err := l.Append(testRecord(2, 2)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(interval + interval/4) // a tick fires with the flusher still busy
	close(sink.gate)
	select {
	case <-sink.entered:
	case <-time.After(interval / 2):
		t.Fatal("the batch staged during a flush waited for a tick after it")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Flush returns only once the batch staged before the call — another
// appender's record included — is written and fsynced; it does not wait for
// the tick.
func TestStagingFlushCallDoesNotWaitForTick(t *testing.T) {
	sink := &syncSink{delay: 20 * time.Millisecond}
	l := Open(Config{Sink: sink, Durability: Fsync, FlushInterval: time.Hour})
	acked := make(chan error, 1)
	go func() { acked <- l.Append(testRecord(1, 1)) }()
	for l.Stats().Appended == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !sink.durable(1) {
		t.Fatal("Flush returned before the staged record's fsync")
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush returned with the staged record's appender still waiting")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// committers runs n goroutines appending records with distinct TxIDs until
// stop is closed or an Append fails, calling acked after every nil return.
func committers(l *Log, n int, stop <-chan struct{}, acked func(txid uint64)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txid := uint64(w)<<32 | i
				if err := l.Append(testRecord(txid, txid)); err != nil {
					return
				}
				acked(txid)
			}
		}(w)
	}
	return &wg
}

// At Fsync no Append returns nil before the Sync covering its bytes has:
// checked at every return of 16 concurrent committers.
func TestStagingDurableBeforeReturn(t *testing.T) {
	sink := &syncSink{}
	l := Open(Config{Sink: sink, Durability: Fsync})
	stop := make(chan struct{})
	var acks, early atomic.Int64
	wg := committers(l, 16, stop, func(txid uint64) {
		acks.Add(1)
		if !sink.durable(txid) {
			early.Add(1)
		}
	})
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if acks.Load() == 0 {
		t.Fatal("no commit was acknowledged")
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d of %d appends returned before their bytes were synced", n, acks.Load())
	}
}

// Group commit: the 16 committers form one cohort that shares each fsync.
// The flusher holds the batch that opens as an fsync ends until the
// committers that fsync acknowledged are back; otherwise whoever staged
// during the fsync would go out alone and the committers would split into
// two cohorts of 8 that take turns. It measures 15.9 per fsync, and the
// bound leaves room for the ramp-up. The same loop checks that the flusher
// times its fsyncs (SyncNanos covers every delay) and that the holds stay
// under them.
func TestStagingGroupCommit(t *testing.T) {
	st := runCommitters(t, 16, 300*time.Millisecond)
	if st.Syncs == 0 || st.Syncs > st.Batches {
		t.Fatalf("syncs=%d batches=%d", st.Syncs, st.Batches)
	}
	if perSync := float64(st.Appended) / float64(st.Syncs); perSync < 14 {
		t.Fatalf("%d records over %d fsyncs = %.1f per fsync, want 16 or nearly", st.Appended, st.Syncs, perSync)
	}
	if floor := st.Syncs * uint64(slowSync); st.SyncNanos < floor {
		t.Fatalf("SyncNanos=%d over %d fsyncs of %v each, want at least %d", st.SyncNanos, st.Syncs, slowSync, floor)
	}
	if st.HeldNanos > st.SyncNanos {
		t.Fatalf("HeldNanos=%d above SyncNanos=%d: a hold outlasted its fsync bound", st.HeldNanos, st.SyncNanos)
	}
}

// slowSync is the fsync time runCommitters' committers pile up behind.
const slowSync = 2 * time.Millisecond

// runCommitters runs n committers behind a slowSync fsync for d and returns
// the closed log's counters.
func runCommitters(t *testing.T, n int, d time.Duration) LogStats {
	t.Helper()
	sink := &syncSink{delay: slowSync}
	l := Open(Config{Sink: sink, Durability: Fsync})
	stop := make(chan struct{})
	wg := committers(l, n, stop, func(uint64) {})
	time.Sleep(d)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l.Stats()
}

// The benchmark's durable shape: two closed-loop committers share each fsync
// rather than taking turns, each staging its next record while the other's
// fsync runs.
func TestStagingTwoCommittersShareFsync(t *testing.T) {
	st := runCommitters(t, 2, 300*time.Millisecond)
	if st.Syncs == 0 {
		t.Fatal("no fsync")
	}
	if perSync := float64(st.Appended) / float64(st.Syncs); perSync < 1.8 {
		t.Fatalf("%d records over %d fsyncs = %.2f per fsync, want 2 or nearly", st.Appended, st.Syncs, perSync)
	}
	if st.HeldNanos > st.SyncNanos {
		t.Fatalf("HeldNanos=%d above SyncNanos=%d", st.HeldNanos, st.SyncNanos)
	}
}

// A lone committer has no one to wait for: every record is its own batch and
// fsync, and the flusher never holds one.
func TestStagingLoneCommitterNeverHolds(t *testing.T) {
	st := runCommitters(t, 1, 100*time.Millisecond)
	if st.Appended == 0 || st.Syncs != st.Appended || st.Batches != st.Appended {
		t.Fatalf("appended=%d batches=%d syncs=%d, want one batch and fsync per record",
			st.Appended, st.Batches, st.Syncs)
	}
	if st.HeldNanos != 0 {
		t.Fatalf("HeldNanos=%d with one committer", st.HeldNanos)
	}
}

// slowFile is a FaultFile whose every Sync first takes delay.
type slowFile struct {
	*FaultFile
	delay time.Duration
}

func (f *slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.FaultFile.Sync()
}

// A held batch does not wait out its bound for a Flush call, Close or a
// latched error, and a cohort member that never returns costs one bounded
// hold. Each case builds a cohort of two: A's record goes out alone, B stages
// behind A's slow fsync, and A then never appends again, so B's batch is
// held for the rest of a cohort that is not coming.
func TestStagingHoldEnds(t *testing.T) {
	const fsync = 200 * time.Millisecond
	for _, tc := range []struct {
		name    string
		failAt  int                // the failAt-th fsync fails; 0: none does
		release func(l *Log) error // run once B's batch is held; nil: let the hold run out
	}{
		{name: "Flush", release: func(l *Log) error { return l.Flush() }},
		{name: "Close", release: func(l *Log) error { return l.Close() }},
		{name: "FaultFileSyncErr", failAt: 2},
		{name: "MemberNeverReturns"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := NewFaults()
			ff, _ := newFaultSegment(t, faults)
			if tc.failAt > 0 {
				faults.Arm(FaultFileSyncErr, tc.failAt-1)
			}
			l := Open(Config{Sink: &slowFile{ff, fsync}, Durability: Fsync, FlushInterval: time.Hour})
			appendAsync := func(txid uint64) <-chan error {
				acked := make(chan error, 1)
				go func() { acked <- l.Append(testRecord(txid, txid)) }()
				return acked
			}
			staged := func(n uint64) {
				for l.Stats().Appended < n {
					time.Sleep(time.Millisecond)
				}
			}
			// The latch case gives A a lone round first, so the failing
			// fsync has a successful one before it to bound a hold by.
			a := uint64(1)
			if tc.failAt > 0 {
				if err := <-appendAsync(a); err != nil {
					t.Fatal(err)
				}
				a++
			}
			ackA := appendAsync(a)
			staged(a)
			ackB := appendAsync(100)
			staged(a + 1)
			if st := l.Stats(); st.Batches != a-1 {
				t.Fatalf("B staged after A's fsync ended (batches=%d): the cohort is not two", st.Batches)
			}
			errA := <-ackA // A's fsync has ended, and A does not come back
			if tc.failAt > 0 {
				if !errors.Is(errA, ErrInjected) {
					t.Fatalf("A = %v, want the fsync error", errA)
				}
				select {
				case err := <-ackB:
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("B = %v, want the fsync error", err)
					}
				case <-time.After(fsync / 2):
					t.Fatal("B's batch was held after the log latched an error")
				}
				if st := l.Stats(); st.HeldNanos != 0 {
					t.Fatalf("HeldNanos=%d: a batch was held behind a latched error", st.HeldNanos)
				}
				if err := l.Close(); !errors.Is(err, ErrInjected) {
					t.Fatalf("Close = %v", err)
				}
				return
			}
			if errA != nil {
				t.Fatal(errA)
			}
			time.Sleep(10 * time.Millisecond)
			if size, _ := ff.Offsets(); size != int64(len(SegmentHeader()))+int64(l.Stats().Bytes) {
				t.Fatal("B's batch went to the sink instead of being held for the cohort")
			}
			if tc.release == nil {
				if err := <-ackB; err != nil {
					t.Fatal(err)
				}
				held := l.Stats().HeldNanos
				if held < uint64(fsync/2) || held > l.Stats().SyncNanos {
					t.Fatalf("HeldNanos=%v, want one hold bounded by the %v fsync", time.Duration(held), fsync)
				}
				// The cohort is re-estimated from the batch that went out:
				// B alone no longer waits for anyone.
				if err := <-appendAsync(101); err != nil {
					t.Fatal(err)
				}
				if st := l.Stats(); st.HeldNanos != held {
					t.Fatalf("HeldNanos %d -> %d: the log kept holding for a member that left", held, st.HeldNanos)
				}
			} else {
				if err := tc.release(l); err != nil {
					t.Fatal(err)
				}
				if err := <-ackB; err != nil {
					t.Fatal(err)
				}
				if held := l.Stats().HeldNanos; held == 0 || held >= uint64(fsync/2) {
					t.Fatalf("HeldNanos=%v: %s did not end the hold promptly", time.Duration(held), tc.name)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// syncCounter counts the Sync calls that reach a FaultFile.
type syncCounter struct {
	*FaultFile
	syncs atomic.Int64
}

func (c *syncCounter) Sync() error {
	c.syncs.Add(1)
	return c.FaultFile.Sync()
}

// Per-batch outcome: when the k-th fsync fails, every Append acknowledged
// before it keeps its nil and its bytes survive a power loss; the k-th
// batch's appenders and everyone after get the error, and their bytes are
// gone; and fsync is never called again.
func TestStagingPerBatchOutcome(t *testing.T) {
	const failAt = 5 // the 5th fsync fails
	faults := NewFaults()
	ff, path := newFaultSegment(t, faults)
	sink := &syncCounter{FaultFile: ff}
	faults.Arm(FaultFileSyncErr, failAt-1)
	l := Open(Config{Sink: sink, Durability: Fsync})

	var mu sync.Mutex
	outcome := make(map[uint64]error)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				txid := uint64(w)<<32 | i
				err := l.Append(testRecord(txid, txid))
				mu.Lock()
				outcome[txid] = err
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Flush after the failed fsync = %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close after the failed fsync = %v", err)
	}
	if n := sink.syncs.Load(); n != failAt {
		t.Fatalf("sink saw %d fsyncs, want exactly %d: none after the failure", n, failAt)
	}
	if err := ff.Crash(0); err != nil {
		t.Fatal(err)
	}
	recs, _ := readSegment(t, path)
	onDisk := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		onDisk[r.TxID] = true
	}
	acked := 0
	for txid, err := range outcome {
		switch {
		case err == nil && !onDisk[txid]:
			t.Errorf("tx %#x acknowledged durable but lost in the crash", txid)
		case err != nil && !errors.Is(err, ErrInjected):
			t.Errorf("tx %#x failed with %v, want the fsync error", txid, err)
		case err != nil && onDisk[txid]:
			t.Errorf("tx %#x reported failed but is in the log", txid)
		case err == nil:
			acked++
		}
	}
	if acked < failAt-1 || acked != len(recs) {
		t.Fatalf("%d acknowledged, %d on disk, over %d good fsyncs", acked, len(recs), failAt-1)
	}
}

// gateSink blocks every Write until the gate is opened, then returns err.
type gateSink struct {
	entered chan struct{} // receives once per Write, on entry; buffered past the writes a test makes
	gate    chan struct{}
	err     error
	written atomic.Int64
}

func (g *gateSink) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.gate
	if g.err != nil {
		return 0, g.err
	}
	g.written.Add(int64(len(p)))
	return len(p), nil
}

// BufferedRecords bounds the staging batch: with the flusher stuck in a
// write and the next batch full, Append blocks — and is released by Close
// (ErrClosed) or by the log latching an error (that error), not left hanging.
func TestStagingAppendBlockedOnFullBatch(t *testing.T) {
	diskGone := errors.New("disk gone")
	for _, tc := range []struct {
		name    string
		sinkErr error
		release func(l *Log) error // what unblocks the appender; returns Close's result
		want    error
	}{
		{"Close", nil, func(l *Log) error { return l.Close() }, ErrClosed},
		{"LatchedError", diskGone, nil, diskGone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &gateSink{entered: make(chan struct{}, 16), gate: make(chan struct{}), err: tc.sinkErr}
			l := Open(Config{Sink: sink, BatchSize: 4, BufferedRecords: 4, FlushInterval: time.Hour})
			for i := uint64(1); i <= 4; i++ {
				if err := l.Append(testRecord(i, i)); err != nil {
					t.Fatal(err)
				}
			}
			<-sink.entered // the flusher holds batch 1 inside Write
			for i := uint64(5); i <= 8; i++ {
				if err := l.Append(testRecord(i, i)); err != nil {
					t.Fatal(err)
				}
			}
			blocked := make(chan error, 1)
			go func() { blocked <- l.Append(testRecord(9, 9)) }()
			select {
			case err := <-blocked:
				t.Fatalf("Append into a full batch returned %v instead of blocking", err)
			case <-time.After(20 * time.Millisecond):
			}
			closed := make(chan error, 1)
			if tc.release != nil {
				go func() { closed <- tc.release(l) }()
			} else {
				close(sink.gate) // batch 1's write fails and latches
			}
			select {
			case err := <-blocked:
				if !errors.Is(err, tc.want) {
					t.Fatalf("released Append = %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Append still blocked on the full batch")
			}
			if tc.release == nil {
				if err := l.Close(); !errors.Is(err, diskGone) {
					t.Fatalf("Close = %v", err)
				}
				return
			}
			close(sink.gate)
			if err := <-closed; err != nil {
				t.Fatalf("Close = %v", err)
			}
			if st := l.Stats(); st.Flushed != 8 || sink.written.Load() != int64(st.Bytes) {
				t.Fatalf("flushed=%d bytes=%d written=%d, want both accepted batches in the sink",
					st.Flushed, st.Bytes, sink.written.Load())
			}
		})
	}
}

// An Async Append stages its record in a buffer the log already owns: no
// allocation once both staging buffers have grown to the working size.
func TestStagingAsyncAppendAllocatesNothing(t *testing.T) {
	l := Open(Config{})
	rec := testRecord(1, 1)
	for i := 0; i < 4*256; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(2000, func() {
		if err := l.Append(rec); err != nil {
			t.Error(err)
		}
	})
	if a != 0 {
		t.Fatalf("async Append: %v allocs/op", a)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
