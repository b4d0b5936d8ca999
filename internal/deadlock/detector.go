package deadlock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Source provides the detector's view of the running system. The engine
// implements it; the indirection keeps this package free of engine types.
type Source interface {
	// Snapshot fills the empty graph g with the current wait-for graph:
	// nodes are transactions that have completed normal processing and are
	// blocked on wait-for dependencies; edges come from explicit
	// WaitingTxnLists and implicit read-lock dependencies. It is never
	// called concurrently with itself.
	Snapshot(g *Graph)
	// StillBlocked re-verifies that a transaction remains blocked. The graph
	// is built while processing continues, so a candidate cycle may contain
	// transactions that have since unblocked (a false deadlock).
	StillBlocked(id uint64) bool
	// EndTimestampOf returns the transaction's end timestamp (0 if none) so
	// the detector can pick the youngest member of a cycle as the victim.
	EndTimestampOf(id uint64) uint64
	// Abort asks the transaction to abort, breaking the cycle.
	Abort(id uint64)
}

// Detector periodically scans for deadlocks. Detection is expected to be
// infrequent (Section 4.1.1), so a background sweep with a modest interval
// is appropriate.
type Detector struct {
	src      Source
	interval time.Duration

	// runMu serializes passes (the background sweep and RunOnce callers), so
	// one graph — and whatever scratch the source keeps — is reused by every
	// pass: the sweep runs every few milliseconds and almost always finds
	// nothing blocked, and must not allocate to find that out.
	runMu sync.Mutex
	g     *Graph

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	victims atomic.Uint64
}

// NewDetector creates a detector polling src every interval.
func NewDetector(src Source, interval time.Duration) *Detector {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	return &Detector{src: src, interval: interval, g: NewGraph()}
}

// Start launches the background sweep. It is a no-op if already running.
func (d *Detector) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.loop(d.stop, d.done)
}

// Stop halts the background sweep and waits for it to exit.
func (d *Detector) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Victims returns the number of transactions aborted to break deadlocks.
func (d *Detector) Victims() uint64 { return d.victims.Load() }

func (d *Detector) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			d.RunOnce()
		}
	}
}

// RunOnce performs a single detection pass and returns the number of victims
// aborted. Exported so tests and cooperative callers can drive detection
// synchronously.
func (d *Detector) RunOnce() int {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	g := d.g
	g.Reset()
	d.src.Snapshot(g)
	if len(g.Nodes) < 1 {
		return 0
	}
	victims := 0
	for _, comp := range g.Cycles() {
		// Verify the deadlock is real: every participant must still be
		// blocked. If any has moved on, the cycle has dissolved.
		real := true
		for _, id := range comp {
			if !d.src.StillBlocked(id) {
				real = false
				break
			}
		}
		if !real {
			continue
		}
		// Abort the youngest member (largest end timestamp): it has done the
		// least downstream work and other transactions are least likely to
		// depend on it.
		victim := comp[0]
		victimEnd := d.src.EndTimestampOf(victim)
		for _, id := range comp[1:] {
			if e := d.src.EndTimestampOf(id); e > victimEnd {
				victim, victimEnd = id, e
			}
		}
		// Count before aborting: whoever observes the victim's abort then
		// also observes the count.
		d.victims.Add(1)
		d.src.Abort(victim)
		victims++
	}
	return victims
}
