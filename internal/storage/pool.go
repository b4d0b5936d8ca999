package storage

import (
	"sync"
	"sync/atomic"
)

// VersionPool recycles Version objects so steady-state update traffic
// allocates no version headers and (for payloads up to InlinePayload bytes)
// no payload storage either. It keeps one pool per version shape, so a Get
// reuses only a version of the shape its payload and index count call for.
//
// Safety contract: a version may be Put only once it is unreachable — the
// garbage collector has unlinked it from every index AND every transaction
// that was active at unlink time has terminated. The collector enforces this
// by holding unlinked versions on a deferred free list until the visibility
// watermark passes their unlink timestamp; see gc.Collector.
type VersionPool struct {
	pools  [3]sync.Pool // indexed by shape bits >> shapeShift
	reuses atomic.Uint64
}

// Get returns a version initialized like NewVersion, reusing a recycled
// object of the same shape when one is available.
//
//mvlint:noalloc
func (p *VersionPool) Get(payload []byte, nindexes int, begin, end uint64) *Version {
	shape := shapeFor(len(payload), nindexes)
	v, ok := p.pools[shape>>shapeShift].Get().(*Version)
	if ok {
		p.reuses.Add(1)
	} else {
		// Pool miss: newShape is out of line so this path stays allocation
		// free (mvlint/noalloc).
		v = newShape(shape)
	}
	v.Reset(payload, nindexes, begin, end)
	return v
}

// Put hands a quiesced version back to its shape's pool. See the type
// comment for the safety contract.
//
//mvlint:noalloc
func (p *VersionPool) Put(v *Version) {
	if v == nil {
		return
	}
	// Rearm it empty now: for large (non-inline) payloads this drops the
	// reference to the caller's buffer even while the version sits in the
	// pool, wherever the address was kept.
	v.Reset(nil, 1, 0, 0)
	p.pools[(v.word.Load()&wordShape)>>shapeShift].Put(v)
}

// Reuses reports how many Gets were served from recycled versions.
func (p *VersionPool) Reuses() uint64 { return p.reuses.Load() }
