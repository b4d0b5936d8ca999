package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testRecord(txid, end uint64) *Record {
	return &Record{
		TxID:  txid,
		EndTS: end,
		Ops: []Entry{
			{Table: "accounts", Op: OpUpdate, Key: txid * 10, Payload: []byte("payload")},
			{Table: "accounts", Op: OpDelete, Key: txid*10 + 1},
		},
	}
}

func TestAppendFlushRead(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf})
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(testRecord(i, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.TxID != uint64(i+1) || r.EndTS != uint64(i+1)*2 {
			t.Fatalf("record %d = %+v", i, r)
		}
		if len(r.Ops) != 2 || r.Ops[0].Table != "accounts" ||
			string(r.Ops[0].Payload) != "payload" || r.Ops[1].Op != OpDelete {
			t.Fatalf("record %d ops = %+v", i, r.Ops)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronousAppendWaitsForFlush(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf, Durability: Flush, BatchSize: 1})
	if err := l.Append(testRecord(1, 2)); err != nil {
		t.Fatal(err)
	}
	// The record must already be in the sink when Append returns.
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	l.Close()
}

func TestCloseRejectsAppends(t *testing.T) {
	l := Open(Config{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

func TestGroupCommitBatches(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf, BatchSize: 8, FlushInterval: time.Hour})
	for i := uint64(1); i <= 64; i++ {
		if err := l.Append(testRecord(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != 64 || st.Flushed != 64 {
		t.Fatalf("appended=%d flushed=%d", st.Appended, st.Flushed)
	}
	if st.Batches >= 64 {
		t.Fatalf("batches = %d, expected grouping", st.Batches)
	}
	if st.Bytes == 0 {
		t.Fatal("no bytes written")
	}
	l.Close()
}

func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord(uint64(w*per+i+1), 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("read %d, want %d", len(recs), workers*per)
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.TxID] {
			t.Fatalf("duplicate txid %d", r.TxID)
		}
		seen[r.TxID] = true
	}
	l.Close()
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf, Durability: Flush, BatchSize: 1})
	l.Append(testRecord(1, 1))
	l.Close()
	b := buf.Bytes()
	b[len(b)-1] ^= 0xFF // flip a payload byte
	if _, err := ReadAll(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailTolerated(t *testing.T) {
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf, Durability: Flush, BatchSize: 1})
	l.Append(testRecord(1, 1))
	l.Append(testRecord(2, 2))
	l.Close()
	b := buf.Bytes()
	// Tear the final record mid-frame: a crashed sink write. The reader must
	// return the well-formed prefix and account for the dangling bytes.
	for cut := 1; cut < 8; cut++ {
		torn := b[:len(b)-cut]
		recs, err := ReadAll(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("cut %d: err = %v, want torn tail tolerated", cut, err)
		}
		if len(recs) != 1 || recs[0].TxID != 1 {
			t.Fatalf("cut %d: recs = %+v, want exactly record 1", cut, recs)
		}
		d := NewReader(bytes.NewReader(torn))
		n := 0
		for {
			if _, err := d.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("cut %d: Next err = %v", cut, err)
				}
				break
			}
			n++
		}
		if n != 1 {
			t.Fatalf("cut %d: streamed %d records, want 1", cut, n)
		}
		if want := int64(len(b)/2 - cut); d.Truncated() != want {
			t.Fatalf("cut %d: truncated = %d, want %d", cut, d.Truncated(), want)
		}
	}
	// A tear inside the 4-byte length prefix is tolerated too.
	half := b[:len(b)/2+2]
	recs, err := ReadAll(bytes.NewReader(half))
	if err != nil || len(recs) != 1 {
		t.Fatalf("prefix tear: recs=%d err=%v", len(recs), err)
	}
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(SegmentHeader())
	buf.Write(EncodeRecord(nil, testRecord(7, 9)))
	d := NewReader(bytes.NewReader(buf.Bytes()))
	rec, err := d.Next()
	if err != nil || rec.TxID != 7 || rec.EndTS != 9 {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}
	if d.Version() != SegmentVersion {
		t.Fatalf("version = %d, want %d", d.Version(), SegmentVersion)
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}

	// Legacy streams carry no header and must still decode (version 0).
	legacy := NewReader(bytes.NewReader(EncodeRecord(nil, testRecord(3, 4))))
	rec, err = legacy.Next()
	if err != nil || rec.TxID != 3 {
		t.Fatalf("legacy rec=%+v err=%v", rec, err)
	}
	if legacy.Version() != 0 {
		t.Fatalf("legacy version = %d, want 0", legacy.Version())
	}

	// A header-only segment is a clean empty log.
	empty := NewReader(bytes.NewReader(SegmentHeader()))
	if _, err := empty.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty segment: want EOF, got %v", err)
	}
	if empty.Truncated() != 0 {
		t.Fatalf("empty segment truncated = %d", empty.Truncated())
	}
}

// errSink fails every write after the first n bytes worth of calls.
type errSink struct {
	mu    sync.Mutex
	fails bool
	err   error
}

func (s *errSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails {
		return 0, s.err
	}
	return len(p), nil
}

func TestFlusherErrorPropagates(t *testing.T) {
	sink := &errSink{err: errors.New("disk gone")}
	l := Open(Config{Sink: sink, BatchSize: 1, FlushInterval: time.Millisecond})
	if err := l.Append(testRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	sink.fails = true
	sink.mu.Unlock()
	if err := l.Append(testRecord(2, 2)); err != nil {
		t.Fatal(err) // queued before the failure is observed
	}
	if err := l.Flush(); err == nil {
		t.Fatal("Flush reported success after sink failure")
	}
	// The stored error must now surface from asynchronous Appends too: the
	// log can no longer promise durability, so acks would be lies.
	deadline := time.Now().Add(time.Second)
	for {
		if err := l.Append(testRecord(3, 3)); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async Append kept succeeding after sink failure")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close reported success after sink failure")
	}
}

func TestFaultsCountdown(t *testing.T) {
	f := NewFaults()
	//mvlint:ignore faultpoint scratch point exercising the countdown mechanism itself, not a real fault site
	f.Arm("p", 2)
	fired := 0
	for i := 0; i < 10; i++ {
		//mvlint:ignore faultpoint scratch point exercising the countdown mechanism itself, not a real fault site
		if f.Fire("p") {
			fired++
			if i != 2 {
				t.Fatalf("fired on hit %d, want 2", i)
			}
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly once", fired)
	}
	//mvlint:ignore faultpoint scratch point exercising the countdown mechanism itself, not a real fault site
	if f.Fire("unarmed") {
		t.Fatal("unarmed point fired")
	}
	var nilF *Faults
	//mvlint:ignore faultpoint scratch point exercising the nil-registry path, not a real fault site
	if nilF.Fire("p") {
		t.Fatal("nil registry fired")
	}
}

func TestDeltaEncodingBandwidth(t *testing.T) {
	// Section 5: each update produces a log record storing the new image
	// plus ~8 bytes of metadata; verify framing overhead stays modest for
	// 24-byte rows.
	var buf bytes.Buffer
	l := Open(Config{Sink: &buf, BatchSize: 64})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		l.Append(&Record{TxID: i + 1, EndTS: i + 1, Ops: []Entry{
			{Table: "t", Op: OpUpdate, Key: i, Payload: make([]byte, 24)},
		}})
	}
	l.Flush()
	perRecord := float64(l.Stats().Bytes) / n
	if perRecord > 100 {
		t.Fatalf("per-record bytes = %.1f, framing too heavy", perRecord)
	}
	l.Close()
}

// Property: encode/decode round-trips arbitrary records.
func TestQuickRoundTrip(t *testing.T) {
	f := func(txid, end uint64, key uint64, payload []byte, table string, op uint8) bool {
		if len(table) > 255 {
			table = table[:255]
		}
		rec := &Record{TxID: txid, EndTS: end, Ops: []Entry{{
			Table:   table,
			Op:      Op(op%3 + 1),
			Key:     key,
			Payload: payload,
		}}}
		buf := EncodeRecord(nil, rec)
		got, err := ReadAll(bytes.NewReader(buf))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.TxID == txid && g.EndTS == end && len(g.Ops) == 1 &&
			g.Ops[0].Table == table && g.Ops[0].Key == key &&
			g.Ops[0].Op == Op(op%3+1) &&
			bytes.Equal(g.Ops[0].Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
