// Package tatp implements the Telecommunication Application Transaction
// Processing benchmark used in Section 5.3: four tables with two indexes
// each, seven short transaction types in the standard 35/10/35/2/14/2/2 mix
// (80% read-only, 16% update, 2% insert, 2% delete), and the non-uniform
// subscriber-ID distribution the specification prescribes.
package tatp

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/workload"
)

// Payload layouts. All integers little endian. Strings from the TATP schema
// are represented by fixed-width binary fields of the same size, which
// preserves row widths and update costs without string handling overhead.
//
// SUBSCRIBER:   s_id(8) sub_nbr(8, derived) bits(2) hexes(5) byte2(10)
//
//	msc_location(4) vlr_location(4)                      = 41
//
// ACCESS_INFO:  s_id(8) ai_type(1) data1(1) data2(1) data3(3) data4(5) = 19
// SPECIAL_FAC:  s_id(8) sf_type(1) is_active(1) error_cntrl(1)
//
//	data_a(1) data_b(5)                                  = 17
//
// CALL_FWD:     s_id(8) sf_type(1) start_time(1) end_time(1) numberx(8) = 19
const (
	subscriberSize = 41
	accessInfoSize = 19
	specialFacSize = 17
	callFwdSize    = 19
)

// SubNbr derives the "string" subscriber number key from s_id: the benchmark
// stores the 15-digit decimal representation; we model the separate index
// with an independent 64-bit mix (splitmix64) of s_id. It is a key
// derivation, a stand-in for a key with no order relation to s_id, not a
// bucket mapping: the hash index places the derived key like any other
// (storage.BucketMap).
func SubNbr(sID uint64) uint64 {
	k := sID
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

// Key accessors.
func subSID(p []byte) uint64    { return binary.LittleEndian.Uint64(p) }
func subNbrKey(p []byte) uint64 { return SubNbr(binary.LittleEndian.Uint64(p)) }
func aiSID(p []byte) uint64     { return binary.LittleEndian.Uint64(p) }
func aiComposite(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)<<2 | uint64(p[8]-1)
}
func sfSID(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }
func sfComposite(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)<<2 | uint64(p[8]-1)
}
func cfSIDSF(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)<<2 | uint64(p[8]-1)
}
func cfComposite(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)<<4 | uint64(p[8]-1)<<2 | uint64(p[9]/8)
}

// Index ordinals.
const (
	// Subscriber indexes: by s_id and by sub_nbr.
	SubBySID, SubByNbr = 0, 1
	// Access info indexes: by (s_id, ai_type) and by s_id.
	AIByComposite, AIBySID = 0, 1
	// Special facility indexes: by (s_id, sf_type) and by s_id.
	SFByComposite, SFBySID = 0, 1
	// Call forwarding indexes: by (s_id, sf_type, start_time) and by
	// (s_id, sf_type).
	CFByComposite, CFBySIDSF = 0, 1
)

// DB bundles the four tables.
type DB struct {
	Database   *core.Database
	Subscriber *core.Table
	AccessInfo *core.Table
	SpecialFac *core.Table
	CallFwd    *core.Table
	// Subscribers is the population size.
	Subscribers uint64
	// Dist is the non-uniform s_id distribution.
	Dist workload.NURand
}

// CreateTables builds the four-table schema with two indexes per table
// (Section 5.3: "four tables with two indexes on each table").
func CreateTables(db *core.Database, subscribers uint64) (*DB, error) {
	buckets := func(rowsPerSub float64) int {
		b := int(float64(subscribers) * rowsPerSub)
		if b < 1024 {
			b = 1024
		}
		return b
	}
	sub, err := db.CreateTable(core.TableSpec{Name: "subscriber", Indexes: []core.IndexSpec{
		{Name: "s_id", Key: subSID, Buckets: buckets(1)},
		{Name: "sub_nbr", Key: subNbrKey, Buckets: buckets(1)},
	}})
	if err != nil {
		return nil, err
	}
	ai, err := db.CreateTable(core.TableSpec{Name: "access_info", Indexes: []core.IndexSpec{
		{Name: "s_id_ai", Key: aiComposite, Buckets: buckets(2.5)},
		{Name: "s_id", Key: aiSID, Buckets: buckets(1)},
	}})
	if err != nil {
		return nil, err
	}
	sf, err := db.CreateTable(core.TableSpec{Name: "special_facility", Indexes: []core.IndexSpec{
		{Name: "s_id_sf", Key: sfComposite, Buckets: buckets(2.5)},
		{Name: "s_id", Key: sfSID, Buckets: buckets(1)},
	}})
	if err != nil {
		return nil, err
	}
	cf, err := db.CreateTable(core.TableSpec{Name: "call_forwarding", Indexes: []core.IndexSpec{
		{Name: "s_id_sf_st", Key: cfComposite, Buckets: buckets(4)},
		{Name: "s_id_sf", Key: cfSIDSF, Buckets: buckets(2.5)},
	}})
	if err != nil {
		return nil, err
	}
	return &DB{
		Database:    db,
		Subscriber:  sub,
		AccessInfo:  ai,
		SpecialFac:  sf,
		CallFwd:     cf,
		Subscribers: subscribers,
		Dist:        workload.NewNURand(subscribers),
	}, nil
}

// Load populates the database per the TATP specification: every subscriber
// has 1-4 access-info rows, 1-4 special-facility rows, and each
// special-facility row has 0-3 call-forwarding rows.
func (d *DB) Load(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for s := uint64(1); s <= d.Subscribers; s++ {
		d.Database.LoadRow(d.Subscriber, subscriberRow(s, rng))
		nAI := 1 + rng.Intn(4)
		aiTypes := rng.Perm(4)[:nAI]
		for _, t := range aiTypes {
			d.Database.LoadRow(d.AccessInfo, accessInfoRow(s, byte(t+1), rng))
		}
		nSF := 1 + rng.Intn(4)
		sfTypes := rng.Perm(4)[:nSF]
		for _, t := range sfTypes {
			d.Database.LoadRow(d.SpecialFac, specialFacRow(s, byte(t+1), rng))
			nCF := rng.Intn(4)
			starts := []byte{0, 8, 16}
			rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
			for c := 0; c < nCF; c++ {
				d.Database.LoadRow(d.CallFwd, callFwdRow(s, byte(t+1), starts[c], rng))
			}
		}
	}
}

func subscriberRow(sID uint64, rng *rand.Rand) []byte {
	p := make([]byte, subscriberSize)
	binary.LittleEndian.PutUint64(p, sID)
	binary.LittleEndian.PutUint64(p[8:], SubNbr(sID))
	for i := 16; i < 33; i++ {
		p[i] = byte(rng.Intn(256))
	}
	binary.LittleEndian.PutUint32(p[33:], rng.Uint32()) // msc_location
	binary.LittleEndian.PutUint32(p[37:], rng.Uint32()) // vlr_location
	return p
}

func accessInfoRow(sID uint64, aiType byte, rng *rand.Rand) []byte {
	p := make([]byte, accessInfoSize)
	binary.LittleEndian.PutUint64(p, sID)
	p[8] = aiType
	for i := 9; i < accessInfoSize; i++ {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

func specialFacRow(sID uint64, sfType byte, rng *rand.Rand) []byte {
	p := make([]byte, specialFacSize)
	binary.LittleEndian.PutUint64(p, sID)
	p[8] = sfType
	// is_active is true in 85% of rows per the spec.
	if rng.Intn(100) < 85 {
		p[9] = 1
	}
	for i := 10; i < specialFacSize; i++ {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

func callFwdRow(sID uint64, sfType, startTime byte, rng *rand.Rand) []byte {
	p := make([]byte, callFwdSize)
	binary.LittleEndian.PutUint64(p, sID)
	p[8] = sfType
	p[9] = startTime
	p[10] = startTime + byte(1+rng.Intn(8)) // end_time
	binary.LittleEndian.PutUint64(p[11:], rng.Uint64())
	return p
}

// Validate performs structural sanity checks after load; used by tests.
func (d *DB) Validate() error {
	tx := d.Database.Begin(core.WithIsolation(core.ReadCommitted))
	// Read-only: abort releases the transaction; there is no commit outcome
	// to check (a deferred Commit would silently drop one if writes ever
	// crept in here — mvlint/errlatch).
	defer func() { _ = tx.Abort() }()
	for s := uint64(1); s <= min(d.Subscribers, 64); s++ {
		row, ok, err := tx.Lookup(d.Subscriber, SubBySID, s, func(p []byte) bool { return subSID(p) == s })
		if err != nil || !ok {
			return fmt.Errorf("tatp: subscriber %d missing (err=%v)", s, err)
		}
		if subSID(row.Payload()) != s {
			return fmt.Errorf("tatp: subscriber %d payload corrupt", s)
		}
		if _, ok, _ = tx.Lookup(d.Subscriber, SubByNbr, SubNbr(s), func(p []byte) bool { return subSID(p) == s }); !ok {
			return fmt.Errorf("tatp: subscriber %d unreachable via sub_nbr", s)
		}
	}
	return nil
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
