package wal

// Tests for the staging-batch pipeline: the flush policy (the tick keeps its
// cadence across a flush, a Flush call does not wait for it, every commit
// staged between two ticks shares one fsync), the acknowledgement contract at
// Fsync (durable before return, this batch's outcome and never the global
// latch), backpressure on a full batch, and the allocation-free Async append.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tick keeps its cadence: one that fires while the flusher is inside a
// write is kept, so the batch staged meanwhile goes out as soon as the flusher
// is free instead of a full interval after the previous flush ended. With the
// re-armed timer this replaced, a commit waited out two ticks where one was
// due.
func TestStagingTickDuringFlushIsKept(t *testing.T) {
	const interval = 200 * time.Millisecond
	sink := &gateSink{entered: make(chan struct{}, 4), gate: make(chan struct{})}
	l := Open(Config{Sink: sink, Durability: Flush, FlushInterval: interval})
	first := make(chan error, 1)
	go func() { first <- l.Append(testRecord(1, 1)) }()
	<-sink.entered // the first tick has batch 1 inside Write
	second := make(chan error, 1)
	go func() { second <- l.Append(testRecord(2, 2)) }()
	time.Sleep(interval + interval/4) // a tick fires with the flusher still busy
	close(sink.gate)
	for _, ack := range []chan error{first, second} {
		select {
		case err := <-ack:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(interval / 2):
			t.Fatal("the batch staged during a flush waited for a tick after it")
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// A Flush call makes the staged batch due at once, waiters included: it does
// not wait for the tick.
func TestStagingFlushCallDoesNotWaitForTick(t *testing.T) {
	sink := &syncSink{}
	l := Open(Config{Sink: sink, Durability: Fsync, FlushInterval: time.Hour})
	acked := make(chan error, 1)
	go func() { acked <- l.Append(testRecord(1, 1)) }()
	for l.Stats().Appended == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush returned with the staged record's appender still waiting")
	}
	if !sink.durable(1) {
		t.Fatal("append acknowledged before its fsync")
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

// Group commit: every committer that stages its record between two ticks
// shares one write and one fsync. With the fsync slower than the tick, the
// tick kept during a flush fires the moment the flusher is free, before all
// 16 committers have been rescheduled, so a round may split in two (measured
// 8.2 to 10.5 per fsync); the bound leaves room for that and for the ramp-up.
func TestStagingGroupCommit(t *testing.T) {
	sink := &syncSink{delay: 2 * time.Millisecond}
	l := Open(Config{Sink: sink, Durability: Fsync})
	stop := make(chan struct{})
	wg := committers(l, 16, stop, func(uint64) {})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs == 0 || st.Syncs > st.Batches {
		t.Fatalf("syncs=%d batches=%d", st.Syncs, st.Batches)
	}
	if perSync := float64(st.Appended) / float64(st.Syncs); perSync < 6 {
		t.Fatalf("%d records over %d fsyncs = %.1f per fsync, want 8 or more", st.Appended, st.Syncs, perSync)
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
