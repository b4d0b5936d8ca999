package storage

import (
	"sync"
	"sync/atomic"
)

// VersionPool recycles Version objects so steady-state update traffic
// allocates no version headers and (for payloads up to InlinePayload bytes)
// no payload storage either.
//
// Safety contract: a version may be Put only once it is unreachable — the
// garbage collector has unlinked it from every index AND every transaction
// that was active at unlink time has terminated. The collector enforces this
// by holding unlinked versions on a deferred free list until the visibility
// watermark passes their unlink timestamp; see gc.Collector.
type VersionPool struct {
	pool   sync.Pool
	reuses atomic.Uint64
}

// Get returns a version initialized like NewVersion, reusing a recycled
// object when one is available.
//
//mvlint:noalloc
func (p *VersionPool) Get(payload []byte, nindexes int, begin, end uint64) *Version {
	if v, ok := p.pool.Get().(*Version); ok {
		p.reuses.Add(1)
		v.Reset(payload, nindexes, begin, end)
		return v
	}
	// Pool miss: the allocation lives in its own function so the recycled
	// fast path stays allocation free (mvlint/noalloc).
	v := newVersion()
	v.Reset(payload, nindexes, begin, end)
	return v
}

// newVersion is the pool-miss slow path. Marked noinline so the compiler
// cannot fold the allocation back into Get's fast path (and so the
// mvlint/noalloc escape attribution stays put).
//
//go:noinline
func newVersion() *Version {
	return &Version{}
}

// Put hands a quiesced version back for reuse. See the type comment for the
// safety contract.
//
//mvlint:noalloc
func (p *VersionPool) Put(v *Version) {
	if v == nil {
		return
	}
	// Drop the payload reference now: for large (non-inline) payloads this
	// releases the caller's buffer even while the version sits in the pool.
	v.payload, v.plen = nil, 0
	p.pool.Put(v)
}

// Reuses reports how many Gets were served from recycled versions.
func (p *VersionPool) Reuses() uint64 { return p.reuses.Load() }
