package storage

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// benchHashKeys is the row count of the hash-index benchmarks: 2^20 dense
// keys 0..2^20-1 in a table of 2^20 buckets, the shape of the benchmark's
// update-uniform table.
const benchHashKeys = 1 << 20

func benchHashTable(b *testing.B) *Table {
	tbl, err := NewTable(TableSpec{
		Name:    "t",
		Indexes: []IndexSpec{{Name: "pk", Key: keyOf, Buckets: benchHashKeys}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

func benchHashVersions() []*Version {
	vs := make([]*Version, benchHashKeys)
	for i := range vs {
		vs[i] = NewVersion(pay(uint64(i)), 1, field.FromTS(1), field.FromTS(field.Infinity))
	}
	return vs
}

// BenchmarkHashLoad1M links ascending keys, the order a bulk load inserts
// them in, into a table of 2^20 buckets, and starts over in a fresh table
// once all 2^20 are in: an op is one Table.Insert.
func BenchmarkHashLoad1M(b *testing.B) {
	vs := benchHashVersions()
	tbl := benchHashTable(b)
	i := 0
	for b.Loop() {
		if i == benchHashKeys {
			b.StopTimer()
			tbl, i = benchHashTable(b), 0
			b.StartTimer()
		}
		tbl.Insert(vs[i])
		i++
	}
}

// BenchmarkHashLookup1M looks up random keys of a table loaded with the
// dense keys 0..2^20-1: an op is one Lookup plus the chain walk to the
// key's version. It reports foreign/op, the versions of other keys walked
// past per lookup.
func BenchmarkHashLookup1M(b *testing.B) {
	tbl := benchHashTable(b)
	for _, v := range benchHashVersions() {
		tbl.Insert(v)
	}
	ix := tbl.Index(0)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, benchHashKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(benchHashKeys))
	}
	var foreign, ops int
	for b.Loop() {
		key := keys[ops&(benchHashKeys-1)]
		for v := ix.Lookup(key).Head(); v != nil && v.Key(0) != key; v = v.Next(0) {
			foreign++
		}
		ops++
	}
	b.ReportMetric(float64(foreign)/float64(ops), "foreign/op")
}
