//go:build !race

// The race detector makes sync.Pool drop Puts at random, so a pooled Tx is
// reallocated on some Begins; these counts only hold without it.

package sv

import (
	"io"
	"testing"

	"repro/internal/iso"
	"repro/internal/storage"
	"repro/internal/wal"
)

func TestRecordOneAllocation(t *testing.T) {
	for nix := 1; nix <= 2; nix++ {
		e := NewEngine(Config{})
		specs := []storage.IndexSpec{
			{Name: "pk", Key: payloadKey, Buckets: 1 << 10},
			{Name: "val", Key: payloadVal, Buckets: 1 << 10},
		}[:nix]
		tbl, err := e.CreateTable(storage.TableSpec{Name: "t", Indexes: specs})
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, 128)
		for i := range payloads {
			payloads[i] = testPayload(uint64(i), uint64(i))
		}
		next := 0
		insert := func() {
			tx := e.Begin(iso.ReadCommitted)
			if err := tx.Insert(tbl, payloads[next]); err != nil {
				t.Fatal(err)
			}
			next++
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		insert() // grows the pooled Tx's bookkeeping once
		if n := testing.AllocsPerRun(100, insert); n != 1 {
			t.Errorf("%d-index insert: %v allocations per transaction, want 1 (the record)", nix, n)
		}
	}
}

// TestTxSteadyStateAllocs runs the Section 5 R10W2 body through the sv API
// with prebuilt payloads: after warm-up a transaction allocates nothing, on
// either index kind, at either lock duration, with or without a redo log.
func TestTxSteadyStateAllocs(t *testing.T) {
	const rows = 1 << 10
	payloads := make([][]byte, rows)
	for k := range payloads {
		payloads[k] = testPayload(uint64(k), uint64(k)+1)
	}
	for _, ordered := range []bool{false, true} {
		for _, level := range []iso.Level{iso.ReadCommitted, iso.Serializable} {
			for _, logged := range []bool{false, true} {
				cfg := Config{}
				if logged {
					cfg.Log = wal.Open(wal.Config{Sink: io.Discard})
				}
				e := NewEngine(cfg)
				tbl, err := e.CreateTable(storage.TableSpec{
					Name:    "t",
					Indexes: []storage.IndexSpec{{Name: "pk", Key: payloadKey, Buckets: rows, Ordered: ordered}},
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range payloads {
					e.LoadRow(tbl, p)
				}
				var keys [12]uint64
				seed := uint64(1)
				r10w2 := func() {
					for i := range keys {
						seed = seed*6364136223846793005 + 1442695040888963407
						keys[i] = (seed >> 33) % rows
					}
					tx := e.Begin(level)
					for _, k := range keys[:10] {
						if err := tx.Scan(tbl, 0, k, nil, func(*Record) bool { return false }); err != nil {
							t.Fatal(err)
						}
					}
					for _, k := range keys[10:] {
						mut := func([]byte) []byte { return payloads[k] }
						if n, err := tx.UpdateWhere(tbl, 0, k, nil, mut); err != nil || n != 1 {
							t.Fatalf("update %d: n=%d err=%v", k, n, err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				for range 100 {
					r10w2()
				}
				if n := testing.AllocsPerRun(1000, r10w2); n != 0 {
					t.Errorf("ordered=%v %v logged=%v: %v allocations per transaction, want 0", ordered, level, logged, n)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
