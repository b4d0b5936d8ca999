// Package wal implements the redo log of Sections 2.4 and 3.2.
//
// To commit, a transaction writes its new versions (and the keys of deleted
// versions) to a log record carrying its end timestamp. Commit order is
// determined by end timestamps, which are included in the records, so
// multiple log streams on different devices can be used.
//
// The experimental configuration of the paper (Section 5) writes log records
// asynchronously with group commit: transactions do not wait for log I/O,
// and records are submitted in batches, which is how the evaluation isolates
// concurrency-control effects from I/O. That is the default level here
// (Async); the Flush and Fsync durability levels make Append wait until its
// batch is written, or written and fsynced.
package wal

import (
	"errors"
	"io"
	"sync"
	"time"
)

// Op identifies a logged operation.
type Op uint8

const (
	// OpInsert logs a brand-new record version.
	OpInsert Op = iota + 1
	// OpUpdate logs the after-image of an updated record. The paper logs the
	// difference between old and new versions plus 8 bytes of metadata; we
	// log the after-image, which is the same information for fixed 24-byte
	// payloads.
	OpUpdate
	// OpDelete logs a unique key identifying the deleted version
	// (Section 3.2: "deletes are logged by writing a unique key").
	OpDelete
)

// Entry is one operation inside a transaction's log record.
type Entry struct {
	Table string
	Op    Op
	// Key is the record's primary index key (used for deletes and for
	// locating records at recovery).
	Key uint64
	// Payload is the after-image for inserts and updates; nil for deletes.
	Payload []byte
}

// Record is a transaction's redo log record. Append encodes it immediately,
// so callers may reuse the Record, its Ops slice, and the payload buffers the
// entries point at as soon as Append returns.
type Record struct {
	TxID  uint64
	EndTS uint64
	Ops   []Entry
}

// Durability selects what a commit acknowledgement promises: how far a
// record has travelled when Append returns.
type Durability int

const (
	// Async acknowledges as soon as the encoded record is queued for group
	// commit (the paper's measurement configuration: commit is decoupled
	// from log I/O entirely).
	Async Durability = iota
	// Flush acknowledges after the record's batch has been written to the
	// sink. The bytes may still sit in the OS page cache: a process kill
	// cannot lose them, a power loss can.
	Flush
	// Fsync acknowledges after the record's batch has been written AND the
	// sink's Sync has confirmed the bytes stable — one fsync per
	// group-commit batch, amortized over every record in it. This is the
	// only level whose acknowledgement survives power loss.
	Fsync
)

// String returns the level name used in docs and benchmarks.
func (d Durability) String() string {
	switch d {
	case Flush:
		return "flush"
	case Fsync:
		return "fsync"
	default:
		return "async"
	}
}

// Syncer is implemented by sinks that can force written bytes to stable
// storage (os.File, ckpt.Store). At Fsync durability the flusher calls Sync
// once per batch; a sink without Sync silently caps the level at Flush.
type Syncer interface {
	Sync() error
}

// Config controls the log.
type Config struct {
	// Sink receives the encoded batches. If nil, records are encoded and
	// discarded (the measurement configuration: bandwidth is modelled but no
	// device is written).
	Sink io.Writer
	// Durability selects the acknowledgement level (default Async).
	Durability Durability
	// BatchSize is the number of staged records at which a batch is flushed
	// without waiting for the tick.
	BatchSize int
	// FlushInterval is the flusher's tick: it bounds how long a record may
	// sit unflushed, and at Flush/Fsync durability it is the group-commit
	// window — every commit staged between two ticks shares one write and
	// one fsync.
	FlushInterval time.Duration
	// BufferedRecords bounds the staging batch; Append blocks while it is
	// full (natural backpressure at extreme rates).
	BufferedRecords int
}

// LogStats reports log activity counters.
type LogStats struct {
	Appended uint64 // records accepted by Append
	Flushed  uint64 // records written to the sink
	Batches  uint64 // group-commit batches written
	Bytes    uint64 // bytes handed to the sink
	Syncs    uint64 // per-batch sink fsyncs (Fsync durability only)
}

// Log is a group-commit redo log built on one double-buffered staging batch:
// appenders encode into the pending batch under mu while the flusher writes
// the previous one, and a batch's outcome is published by sequence number.
type Log struct {
	cfg    Config
	syncer Syncer        // cfg.Sink when it can fsync and cfg.Durability is Fsync
	kick   chan struct{} // capacity 1: a token tells the flusher to look for a due batch
	done   chan struct{} // closed when the flusher has exited

	mu   sync.Mutex
	cond sync.Cond // on mu: a full batch was swapped out, an outcome was published, or Close ran

	pending []byte // the staging batch: encoded frames of recs records
	spare   []byte // the other buffer; the flusher owns it while it writes
	recs    int
	forced  bool   // a Flush call has made pending due and kicked the flusher for it
	seq     uint64 // sequence number of pending; batches count from 1
	doneSeq uint64 // outcomes of all batches <= doneSeq are published
	failSeq uint64 // first failed batch: it and every later one got err; 0 while err is nil

	closed bool
	err    error
	stats  LogStats
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrDegraded is returned by engine write paths after a latched log or sink
// failure has flipped the database into degraded read-only mode: reads and
// read-only snapshots keep serving, new writes fail fast. It lives here
// because wal is the one package every engine imports; core re-exports it.
var ErrDegraded = errors.New("engine degraded: log failure, read-only mode")

// Open starts the log's flusher goroutine.
func Open(cfg Config) *Log {
	if cfg.BufferedRecords <= 0 {
		cfg.BufferedRecords = 1 << 14
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	// A full staging batch must be a due one, or its appenders would sit
	// out the tick.
	cfg.BatchSize = min(cfg.BatchSize, cfg.BufferedRecords)
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Millisecond
	}
	l := &Log{
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
		seq:  1,
	}
	l.cond.L = &l.mu
	if cfg.Durability == Fsync {
		if s, ok := cfg.Sink.(Syncer); ok {
			l.syncer = s
		}
	}
	go l.run()
	return l
}

// Append submits a record for group commit. The record is encoded before
// Append returns, so the caller may immediately reuse the record and any
// payload buffers it references. At Async durability Append returns as soon
// as the encoded record is staged; at Flush it waits until the record's
// batch has reached the sink; at Fsync it additionally waits for the batch's
// fsync, so a nil return is a durable-commit promise.
//
//mvlint:noalloc
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	for l.recs >= l.cfg.BufferedRecords && !l.closed && l.err == nil {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.err; err != nil {
		// The sink failed: the log is no longer durable, so acknowledging
		// further appends would be a lie. Surface the first flush error from
		// every subsequent Append (commit paths treat this as an abort).
		l.mu.Unlock()
		return err
	}
	l.pending = EncodeRecord(l.pending, r)
	l.recs++
	l.stats.Appended++
	// Wake the flusher once per BatchSize crossing, not once per record — with
	// mu released, because the kick is a channel operation. The tick covers a
	// batch that never gets there.
	seq, due := l.seq, l.recs == l.cfg.BatchSize
	l.mu.Unlock()
	if due {
		l.wake()
	}
	if l.cfg.Durability == Async {
		return nil
	}
	return l.await(seq)
}

// Flush blocks until every record appended before the call has been written
// to the sink (and fsynced, at Fsync durability). It does not wait for the
// tick: the staged batch becomes due at once.
func (l *Log) Flush() error {
	l.mu.Lock()
	seq, kick := l.seq-1, false // nothing staged: at most a batch in flight is outstanding
	if l.recs > 0 {
		seq, kick = l.seq, !l.forced
		l.forced = true
	}
	l.mu.Unlock()
	if kick {
		l.wake()
	}
	return l.await(seq)
}

// await blocks until batch seq's outcome is published and returns it. The
// outcome is THAT batch's, not the global latch: a record that was written
// and fsynced is acknowledged as durable even if a later batch has already
// failed by the time this goroutine wakes up. Reporting the latch there would
// abort a transaction whose record is durably in the log, and recovery would
// resurrect it behind the caller's back. The failed batch and every later one
// (never handed to the sink) get the latched error.
func (l *Log) await(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.doneSeq < seq {
		l.cond.Wait()
	}
	if l.failSeq != 0 && seq >= l.failSeq {
		return l.err
	}
	return nil
}

// wake leaves the flusher a token; one pending token is enough, since the
// flusher re-reads the batch state under mu after taking it.
func (l *Log) wake() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Close flushes and stops the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast() // Appends blocked on a full batch
	l.mu.Unlock()
	l.wake()
	<-l.done
	return l.Err()
}

// Stats reports log activity counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the latched flusher error: the first sink write or fsync
// failure observed. A non-nil Err means the log stopped accepting appends
// and the engine above it should degrade (see ErrDegraded).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// run is the flusher. A batch is due on the tick, when it has reached
// BatchSize, when a Flush call asks for it, or when the log is closing —
// the same at every durability level: a commit that waits for its batch
// waits for the next tick, so under load the commit rate follows the clock
// and not the device's fsync latency from one moment to the next. The tick
// is a Ticker, not a timer re-armed after each flush: its cadence does not
// stretch by the time a flush takes, and a tick that fires during a flush is
// kept, so the batch staged meanwhile goes out as soon as the flusher is free.
func (l *Log) run() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		tick := false
		select {
		case <-l.kick:
		case <-ticker.C:
			tick = true
		}
		l.mu.Lock()
		for l.recs > 0 && (tick || l.forced || l.recs >= l.cfg.BatchSize || l.closed) {
			tick = false
			l.flushPending()
		}
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return
		}
	}
}

// flushPending swaps the pending batch out, hands it to the sink in exactly
// one Write (plus one Sync at Fsync durability) and publishes its outcome.
// Called with l.mu held; the I/O runs with it released.
func (l *Log) flushPending() {
	buf, n, seq := l.pending, l.recs, l.seq
	l.pending, l.spare = l.spare[:0], buf
	l.recs, l.forced = 0, false
	l.seq++
	err := l.err
	if n >= l.cfg.BufferedRecords {
		l.cond.Broadcast() // room again
	}
	l.mu.Unlock()
	// Once any write or fsync has failed the log is dead: no further bytes
	// go to the sink and — critically — no fsync is ever retried. After a
	// failed fsync the kernel may have dropped the dirty pages and cleared
	// the error (the fsyncgate semantics), so a later "successful" fsync
	// would prove nothing about the lost bytes; retrying just converts data
	// loss into silent data loss.
	synced := false
	if err == nil {
		if l.cfg.Sink != nil {
			_, err = l.cfg.Sink.Write(buf)
		}
		if err == nil && l.syncer != nil {
			err = l.syncer.Sync()
			synced = err == nil
		}
	}
	l.mu.Lock()
	if err != nil && l.err == nil {
		l.err, l.failSeq = err, seq
	}
	l.stats.Flushed += uint64(n)
	l.stats.Batches++
	l.stats.Bytes += uint64(len(buf))
	if synced {
		l.stats.Syncs++
	}
	l.doneSeq = seq
	l.cond.Broadcast()
}
