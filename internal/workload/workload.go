// Package workload implements the parameterized workloads of Section 5: the
// homogeneous R-read/W-write transaction over an N-row table of 24-byte
// rows, the read-only variants, the long reporting reader, and key
// distributions (uniform, and the TATP-style non-uniform generator).
package workload

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/core"
	"repro/internal/keyenc"
)

// RowSize is the paper's row size: "each row is 24 bytes" (Section 5.1).
const RowSize = 24

// Row builds a 24-byte payload: 8-byte key, 8-byte value, 8 bytes of filler.
func Row(key, val uint64) []byte {
	p := make([]byte, RowSize)
	binary.LittleEndian.PutUint64(p, key)
	binary.LittleEndian.PutUint64(p[8:], val)
	return p
}

// RowKey extracts the key of a row payload.
func RowKey(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// RowVal extracts the value of a row payload.
func RowVal(p []byte) uint64 { return binary.LittleEndian.Uint64(p[8:]) }

// Dist generates keys. Implementations must be safe to call from a single
// goroutine with its own rand.Rand.
type Dist interface {
	Next(rng *rand.Rand) uint64
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct{ N uint64 }

// Next returns a uniform key.
func (u Uniform) Next(rng *rand.Rand) uint64 { return rng.Uint64() % u.N }

// NURand is the TATP/TPC-C style non-uniform generator over [0, N):
// (rand(0,A) | rand(0,N-1)) % N. A is chosen per the TATP specification
// based on the population size.
type NURand struct {
	A uint64
	N uint64
}

// NewNURand picks the TATP-specified A for the population.
func NewNURand(n uint64) NURand {
	var a uint64
	switch {
	case n <= 1_000_000:
		a = 65_535
	case n <= 10_000_000:
		a = 1_048_575
	default:
		a = 2_097_151
	}
	return NURand{A: a, N: n}
}

// Next returns a skewed key.
func (d NURand) Next(rng *rand.Rand) uint64 {
	x := rng.Uint64() % (d.A + 1)
	y := rng.Uint64() % d.N
	return (x | y) % d.N
}

// Table builds the single-table schema of Section 5.1 with buckets sized so
// there are no collisions (as in the paper's setup): the table has at least
// n buckets, and the hash indexes give the dense keys 0..n-1 that Load
// inserts distinct buckets (storage.BucketMap).
func Table(db *core.Database, n uint64) (*core.Table, error) {
	buckets := int(n)
	if buckets < 1024 {
		buckets = 1024
	}
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "rows",
		Indexes: []core.IndexSpec{{Name: "pk", Key: RowKey, Buckets: buckets}},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// OrderedTable builds the same single-table schema with an ordered
// (range-scannable) primary index instead of a hash index.
func OrderedTable(db *core.Database, n uint64) (*core.Table, error) {
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "rows",
		Indexes: []core.IndexSpec{{Name: "pk", Key: RowKey, Ordered: true}},
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// SecondaryLayout is the composite key layout of the secondary-index
// workload: (group, id) packed order-preserving, so all rows of one group
// are one encoded prefix range.
var SecondaryLayout = keyenc.MustLayout(
	keyenc.Field{Name: "grp", Bits: 16},
	keyenc.Field{Name: "id", Bits: 48},
)

// SecondaryTable builds the secondary-index schema: the hash primary index
// plus a non-unique ordered secondary on the composite (group, id), where a
// row's group is its value modulo groups. Updates that change the value
// migrate rows between groups, so the secondary index sees delete/insert
// churn on its duplicate-prefix chains.
func SecondaryTable(db *core.Database, n, groups uint64) (*core.Table, error) {
	buckets := int(n)
	if buckets < 1024 {
		buckets = 1024
	}
	secKey := func(p []byte) uint64 {
		return SecondaryLayout.MustEncode(RowVal(p)%groups, RowKey(p))
	}
	return db.CreateTable(core.TableSpec{
		Name: "rows",
		Indexes: []core.IndexSpec{
			{Name: "pk", Key: RowKey, Buckets: buckets},
			{Name: "grp", Key: secKey, Ordered: true, Composite: SecondaryLayout},
		},
	})
}

// Load populates the table with n rows keyed 0..n-1, value = key.
func Load(db *core.Database, tbl *core.Table, n uint64) {
	for k := uint64(0); k < n; k++ {
		db.LoadRow(tbl, Row(k, k))
	}
}

// Homogeneous is the parameterized transaction of Section 5.1: R reads and W
// writes uniformly and randomly scattered over N records.
type Homogeneous struct {
	Table *core.Table
	Dist  Dist
	R, W  int
}

// Run executes one transaction body against tx: R point reads followed by W
// read-modify-write updates on distinct random keys. It returns the number
// of rows read.
func (h Homogeneous) Run(tx *core.Tx, rng *rand.Rand) (int, error) {
	reads := 0
	for i := 0; i < h.R; i++ {
		key := h.Dist.Next(rng)
		err := tx.Scan(h.Table, 0, key, nil, func(r core.Row) bool {
			reads++
			return false
		})
		if err != nil {
			return reads, err
		}
	}
	for i := 0; i < h.W; i++ {
		key := h.Dist.Next(rng)
		newVal := rng.Uint64()
		_, err := tx.UpdateWhere(h.Table, 0, key, nil, func(old []byte) []byte {
			return Row(key, newVal)
		})
		if err != nil {
			return reads, err
		}
	}
	return reads, nil
}

// RangeMix is the range-heavy transaction over an ordered table: Scans range
// scans of Span consecutive keys starting at random offsets, followed by W
// point updates. It has no counterpart in the paper — the paper's prototype
// had only hash indexes — and exists to exercise the ordered-index access
// path: visibility-filtered cursors, scan-set rescans (MV/O serializable),
// range locks (MV/L serializable, 1V).
type RangeMix struct {
	Table *core.Table
	Dist  Dist
	N     uint64
	Scans int
	Span  uint64
	W     int
}

// Run executes one transaction body: Scans range scans and W updates. It
// returns the number of rows read.
func (m RangeMix) Run(tx *core.Tx, rng *rand.Rand) (int, error) {
	reads := 0
	for i := 0; i < m.Scans; i++ {
		lo := m.Dist.Next(rng)
		hi := lo + m.Span - 1
		if hi >= m.N {
			hi = m.N - 1
		}
		err := tx.ScanRange(m.Table, 0, lo, hi, nil, func(r core.Row) bool {
			reads++
			return true
		})
		if err != nil {
			return reads, err
		}
	}
	for i := 0; i < m.W; i++ {
		key := m.Dist.Next(rng)
		newVal := rng.Uint64()
		_, err := tx.UpdateWhere(m.Table, 0, key, nil, func(old []byte) []byte {
			return Row(key, newVal)
		})
		if err != nil {
			return reads, err
		}
	}
	return reads, nil
}

// SecondaryMix is the secondary-index transaction over a SecondaryTable:
// Scans composite prefix scans, each reading one whole group through the
// ordered secondary index, followed by W point updates through the primary
// index that assign random values — migrating the updated rows to random
// groups. It exercises the non-unique secondary access path: duplicate
// prefix chains, cross-index link/unlink on every update, and (under
// serializable isolation) prefix-shaped phantom protection.
type SecondaryMix struct {
	Table  *core.Table
	Dist   Dist // primary-key distribution for the updates
	N      uint64
	Groups uint64
	Scans  int
	W      int
}

// Run executes one transaction body. It returns the number of rows read.
func (m SecondaryMix) Run(tx *core.Tx, rng *rand.Rand) (int, error) {
	reads := 0
	for i := 0; i < m.Scans; i++ {
		g := rng.Uint64() % m.Groups
		err := tx.ScanPrefix(m.Table, 1, []uint64{g}, nil, func(r core.Row) bool {
			reads++
			return true
		})
		if err != nil {
			return reads, err
		}
	}
	for i := 0; i < m.W; i++ {
		key := m.Dist.Next(rng)
		newVal := rng.Uint64()
		_, err := tx.UpdateWhere(m.Table, 0, key, nil, func(old []byte) []byte {
			return Row(key, newVal)
		})
		if err != nil {
			return reads, err
		}
	}
	return reads, nil
}

// LongReader is the operational reporting query of Section 5.2.2: a
// transactionally consistent read-only transaction touching fraction rows of
// the table (the paper reads 10% of a 10M-row table, R = 1,000,000).
type LongReader struct {
	Table *core.Table
	N     uint64
	Rows  uint64 // number of rows to read
}

// Run reads Rows consecutive keys starting at a random offset, wrapping
// around the table. It returns the number of rows read.
func (l LongReader) Run(tx *core.Tx, rng *rand.Rand) (int, error) {
	start := rng.Uint64() % l.N
	reads := 0
	for i := uint64(0); i < l.Rows; i++ {
		key := (start + i) % l.N
		err := tx.Scan(l.Table, 0, key, nil, func(r core.Row) bool {
			reads++
			return false
		})
		if err != nil {
			return reads, err
		}
	}
	return reads, nil
}
