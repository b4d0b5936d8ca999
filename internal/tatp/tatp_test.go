package tatp

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

var allSchemes = []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}

func newTATP(t *testing.T, scheme core.Scheme, subs uint64) *DB {
	t.Helper()
	db, err := core.Open(core.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	td, err := CreateTables(db, subs)
	if err != nil {
		t.Fatal(err)
	}
	td.Load(42)
	t.Cleanup(func() { db.Close() })
	return td
}

func TestLoadAndValidate(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			td := newTATP(t, scheme, 200)
			if err := td.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSubNbrBijective(t *testing.T) {
	seen := make(map[uint64]uint64)
	for s := uint64(1); s <= 100_000; s++ {
		k := SubNbr(s)
		if prev, dup := seen[k]; dup {
			t.Fatalf("SubNbr collision: %d and %d", prev, s)
		}
		seen[k] = s
	}
}

func TestEachTransactionType(t *testing.T) {
	type txnCase struct {
		name string
		fn   func(*core.Tx, *rand.Rand) (int, error)
	}
	for _, scheme := range allSchemes {
		td := newTATP(t, scheme, 500)
		cases := []txnCase{
			{"GET_SUBSCRIBER_DATA", td.GetSubscriberData},
			{"GET_NEW_DESTINATION", td.GetNewDestination},
			{"GET_ACCESS_DATA", td.GetAccessData},
			{"UPDATE_SUBSCRIBER_DATA", td.UpdateSubscriberData},
			{"UPDATE_LOCATION", td.UpdateLocation},
			{"INSERT_CALL_FORWARDING", td.InsertCallForwarding},
			{"DELETE_CALL_FORWARDING", td.DeleteCallForwarding},
		}
		for _, tc := range cases {
			t.Run(scheme.String()+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				commits := 0
				for i := 0; i < 50; i++ {
					tx := td.Database.Begin(core.WithIsolation(core.ReadCommitted))
					_, err := tc.fn(tx, rng)
					if err != nil {
						if !errors.Is(err, errRowExists) {
							t.Fatalf("iteration %d: %v", i, err)
						}
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						t.Fatalf("iteration %d commit: %v", i, err)
					}
					commits++
				}
				if commits == 0 {
					t.Fatal("no transaction of this type ever committed")
				}
			})
		}
	}
}

func TestGetSubscriberAlwaysFinds(t *testing.T) {
	td := newTATP(t, core.MVOptimistic, 300)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		tx := td.Database.Begin()
		reads, err := td.GetSubscriberData(tx, rng)
		if err != nil {
			t.Fatal(err)
		}
		if reads != 1 {
			t.Fatalf("GET_SUBSCRIBER_DATA read %d rows, want 1", reads)
		}
		tx.Commit()
	}
}

func TestInsertDeleteCallForwardingRoundTrip(t *testing.T) {
	td := newTATP(t, core.MVOptimistic, 100)
	rng := rand.New(rand.NewSource(11))
	inserted, deleted := 0, 0
	for i := 0; i < 300; i++ {
		tx := td.Database.Begin()
		_, err := td.InsertCallForwarding(tx, rng)
		if err != nil {
			tx.Abort()
		} else if tx.Commit() == nil {
			inserted++
		}
		tx = td.Database.Begin()
		if _, err := td.DeleteCallForwarding(tx, rng); err != nil {
			tx.Abort()
		} else if tx.Commit() == nil {
			deleted++
		}
	}
	if inserted == 0 || deleted == 0 {
		t.Fatalf("inserted=%d deleted=%d", inserted, deleted)
	}
}

func TestMixWeightsMatchSpec(t *testing.T) {
	td := newTATP(t, core.MVOptimistic, 100)
	mix := td.Mix(core.ReadCommitted)
	weights := map[string]int{}
	total := 0
	for _, m := range mix {
		weights[m.Name] = m.Weight
		total += m.Weight
	}
	if total != 100 {
		t.Fatalf("total weight = %d", total)
	}
	readOnly := weights["GET_SUBSCRIBER_DATA"] + weights["GET_NEW_DESTINATION"] + weights["GET_ACCESS_DATA"]
	if readOnly != 80 {
		t.Fatalf("read-only share = %d%%, want 80%%", readOnly)
	}
	if weights["UPDATE_SUBSCRIBER_DATA"]+weights["UPDATE_LOCATION"] != 16 {
		t.Fatal("update share wrong")
	}
	if weights["INSERT_CALL_FORWARDING"] != 2 || weights["DELETE_CALL_FORWARDING"] != 2 {
		t.Fatal("insert/delete share wrong")
	}
}

func TestMixUnderHarness(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			td := newTATP(t, scheme, 1000)
			res := bench.Run(td.Database, td.Mix(core.ReadCommitted), bench.Options{
				Workers:  4,
				Duration: 100 * time.Millisecond,
				Seed:     5,
			})
			if res.Commits == 0 {
				t.Fatal("no commits")
			}
			if res.AbortRate() > 0.2 {
				t.Fatalf("abort rate %.2f too high for TATP", res.AbortRate())
			}
		})
	}
}

// benchmark/run.go:specifiedMiss recognises errRowExists by this text (the
// error is not exported); rewording it would turn the 2 % of the benchmark's
// tatp transactions that hit an existing row into failed operations.
func TestRowExistsErrorText(t *testing.T) {
	if got := errRowExists.Error(); got != "tatp: call forwarding row exists" {
		t.Fatalf("errRowExists = %q; benchmark/run.go:specifiedMiss matches the old text", got)
	}
}

// TestRowsFitInlinePayload: every TATP row, and the Section 5 workloads'
// 24-byte row, fits an MV version's inline payload buffer, so loading or
// updating one allocates no payload beside its version; and the rows of
// the three two-index tables other than SUBSCRIBER fit the 64-byte
// two-index version (docs/perf.md, "The version layout").
func TestRowsFitInlinePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []struct {
		table string
		row   []byte
		small bool // fits storage.SmallPayload2
	}{
		{"SUBSCRIBER", subscriberRow(1, rng), false},
		{"ACCESS_INFO", accessInfoRow(1, 1, rng), true},
		{"SPECIAL_FACILITY", specialFacRow(1, 1, rng), true},
		{"CALL_FORWARDING", callFwdRow(1, 1, 0, rng), true},
		{"workload.RowSize", make([]byte, workload.RowSize), false},
	} {
		if len(r.row) > storage.InlinePayload {
			t.Errorf("%s row is %d bytes, above storage.InlinePayload (%d)", r.table, len(r.row), storage.InlinePayload)
		}
		if r.small && len(r.row) > storage.SmallPayload2 {
			t.Errorf("%s row is %d bytes, above storage.SmallPayload2 (%d)", r.table, len(r.row), storage.SmallPayload2)
		}
	}
}
