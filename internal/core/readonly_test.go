package core_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func openLoaded(t *testing.T, scheme core.Scheme) (*core.Database, *core.Table) {
	t.Helper()
	db, err := core.Open(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	key := func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }
	tbl, err := db.CreateTable(core.TableSpec{
		Name:    "t",
		Indexes: []core.IndexSpec{{Name: "pk", Key: key, Buckets: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := func(k, v uint64) []byte {
		p := make([]byte, 16)
		binary.LittleEndian.PutUint64(p, k)
		binary.LittleEndian.PutUint64(p[8:], v)
		return p
	}
	for k := uint64(0); k < 10; k++ {
		db.LoadRow(tbl, row(k, k))
	}
	return db, tbl
}

func TestReadOnlyFacade(t *testing.T) {
	for _, scheme := range []core.Scheme{core.MVOptimistic, core.MVPessimistic, core.SingleVersion} {
		t.Run(scheme.String(), func(t *testing.T) {
			db, tbl := openLoaded(t, scheme)
			defer db.Close()

			tx := db.BeginReadOnly()
			r, ok, err := tx.Lookup(tbl, 0, 3, nil)
			if err != nil || !ok {
				t.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
			if v := binary.LittleEndian.Uint64(r.Payload()[8:]); v != 3 {
				t.Fatalf("value %d, want 3", v)
			}
			if err := tx.Insert(tbl, make([]byte, 16)); err != core.ErrReadOnlyTx {
				t.Fatalf("Insert = %v, want ErrReadOnlyTx", err)
			}
			if err := tx.Update(tbl, r, make([]byte, 16)); err != core.ErrReadOnlyTx {
				t.Fatalf("Update = %v, want ErrReadOnlyTx", err)
			}
			if err := tx.Delete(tbl, r); err != core.ErrReadOnlyTx {
				t.Fatalf("Delete = %v, want ErrReadOnlyTx", err)
			}
			if _, err := tx.UpdateWhere(tbl, 0, 3, nil, func(old []byte) []byte { return old }); err != core.ErrReadOnlyTx {
				t.Fatalf("UpdateWhere = %v, want ErrReadOnlyTx", err)
			}
			if _, err := tx.DeleteWhere(tbl, 0, 3, nil); err != core.ErrReadOnlyTx {
				t.Fatalf("DeleteWhere = %v, want ErrReadOnlyTx", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyFastLaneCounters is the read-only lane's contract on every
// scheme: a few thousand R=10 transactions through BeginReadOnly move no
// shared counter (MV: the timestamp oracle; 1V: the transaction-id and
// end-sequence counters) and never overflow the pin table.
func TestReadOnlyFastLaneCounters(t *testing.T) {
	const rows, txns = 1000, 4000
	for _, scheme := range []core.Scheme{core.MVOptimistic, core.MVPessimistic, core.SingleVersion} {
		t.Run(scheme.String(), func(t *testing.T) {
			db, err := core.Open(core.Config{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tbl, err := workload.Table(db, rows)
			if err != nil {
				t.Fatal(err)
			}
			workload.Load(db, tbl, rows)

			// shared reads the counters the lane must not move.
			shared := func() [2]uint64 {
				if scheme == core.SingleVersion {
					txSeq, endSeq := db.SV().Counters()
					return [2]uint64{txSeq, endSeq}
				}
				return [2]uint64{db.MV().Oracle().Current()}
			}
			before := shared()
			rd := workload.Homogeneous{Table: tbl, Dist: workload.Uniform{N: rows}, R: 10, W: 0}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < txns; i++ {
				tx := db.BeginReadOnly()
				if _, err := rd.Run(tx, rng); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if after := shared(); after != before {
				t.Fatalf("read-only lane moved a shared counter: %v -> %v", before, after)
			}
			var roBegins uint64
			if scheme == core.SingleVersion {
				roBegins = db.SV().Stats().ReadOnlyBegins
			} else {
				roBegins = db.MV().Stats().ReadOnlyBegins
			}
			if roBegins != txns {
				t.Fatalf("ReadOnlyBegins = %d, want %d", roBegins, txns)
			}
			if n := db.PinOverflows(); n != 0 {
				t.Fatalf("PinOverflows = %d, want 0", n)
			}
		})
	}
}

// TestFunnelStatsCountsDraws pins what FunnelStats counts: an MV writer
// draws twice (transaction ID at Begin, end timestamp at commit), a 1V
// writer once (end sequence), and a read-only transaction never.
func TestFunnelStatsCountsDraws(t *testing.T) {
	for _, c := range []struct {
		scheme core.Scheme
		write  uint64
	}{
		{core.MVOptimistic, 2},
		{core.MVPessimistic, 2},
		{core.SingleVersion, 1},
	} {
		t.Run(c.scheme.String(), func(t *testing.T) {
			db, tbl := openLoaded(t, c.scheme)
			defer db.Close()
			draws := func() uint64 {
				fs := db.FunnelStats()
				if fs.Draws != fs.Physical {
					t.Fatalf("Draws %d != Physical %d", fs.Draws, fs.Physical)
				}
				return fs.Draws
			}

			before := draws()
			tx := db.Begin()
			if _, err := tx.UpdateWhere(tbl, 0, 1, nil, func(old []byte) []byte {
				return append([]byte(nil), old...)
			}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if d := draws() - before; d != c.write {
				t.Fatalf("writing transaction drew %d, want %d", d, c.write)
			}

			before = draws()
			ro := db.BeginReadOnly()
			if _, ok, err := ro.Lookup(tbl, 0, 1, nil); err != nil || !ok {
				t.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}
			if d := draws() - before; d != 0 {
				t.Fatalf("read-only transaction drew %d, want 0", d)
			}
		})
	}
}

// TestReadOnlySingleVersionReadStability pins the 1V semantics of
// WithReadOnly: the transaction must hold read locks (snapshot isolation is
// upgraded to repeatable read), so a concurrent writer cannot slip an
// update under a row the reader has seen. A read-only transaction at the
// 1V default (read committed) would let the update through.
func TestReadOnlySingleVersionReadStability(t *testing.T) {
	db, tbl := openLoaded(t, core.SingleVersion)
	defer db.Close()

	ro := db.BeginReadOnly()
	if _, ok, err := ro.Lookup(tbl, 0, 1, nil); err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	w := db.Begin()
	_, err := w.UpdateWhere(tbl, 0, 1, nil, func(old []byte) []byte {
		return append([]byte(nil), old...)
	})
	if err == nil {
		err = w.Commit()
	} else {
		_ = w.Abort()
	}
	if err == nil {
		t.Fatal("writer updated a row read-locked by a read-only transaction")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}
