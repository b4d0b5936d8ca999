package check

import (
	"fmt"
	"strings"
	"testing"
)

// bankIndexers is the secondary index universe of the bank history: a
// partial index over value%16, excluding rows whose value is divisible by 7.
func bankIndexers() map[string]IndexKeyFn {
	return map[string]IndexKeyFn{
		"ix": func(key, value uint64) (uint64, bool) { return value % 16, value%7 != 0 },
	}
}

// bankHistory builds a known-good two-table history: accounts in "a"
// (initial balances 50+30+20) and a ledger in "b" recording each transfer's
// source account. Constraints attach per flag so a mutation aimed at one
// failure mode is not masked by an earlier-firing constraint.
//
//	t@10  transfer 15 from a[1] to a[2], ledger row b[10]=1
//	t@20  audit: primary + "ix" scans of "a", point reads of all balances
//	t@30  transfer 20 from a[3] to a[1], ledger row b[11]=3
//	t@40  close a[3]: delete its ledger row, then the account
//	t@50  final audit: scans of both tables, point reads
func bankHistory(cons, ref, rule bool) *History {
	h := &History{
		Initial: map[string]map[uint64]uint64{
			"a": {1: 50, 2: 30, 3: 20},
			"b": {},
		},
		Indexers: bankIndexers(),
	}
	if cons {
		h.Constraints = append(h.Constraints, NewConservation("bank-conservation", []string{"a"},
			func(table string, key, value uint64) int64 { return int64(value) }))
	}
	if ref {
		h.Constraints = append(h.Constraints, NewRefIntegrity("ledger-ref", "b", "a",
			func(childKey, childValue uint64) (uint64, bool) { return childValue, true }))
	}
	if rule {
		h.Constraints = append(h.Constraints, NewTxnRule("coupled-writes",
			func(t *Txn, get Lookup) error {
				var wroteA, wroteB bool
				for _, w := range t.Writes {
					switch w.Table {
					case "a":
						wroteA = true
					case "b":
						wroteB = true
					}
				}
				if wroteB && !wroteA {
					return fmt.Errorf("ledger write without an accounts write")
				}
				return nil
			}))
	}
	h.Txns = []Txn{
		{
			EndTS: 10,
			Reads: []Read{
				{Table: "a", Key: 1, Value: 50, Found: true},
				{Table: "a", Key: 2, Value: 30, Found: true},
			},
			Writes: []Write{
				{Table: "a", Key: 1, Value: 35},
				{Table: "a", Key: 2, Value: 45},
				{Table: "b", Key: 10, Value: 1},
			},
		},
		{
			EndTS: 20,
			Reads: []Read{
				{Table: "a", Key: 1, Value: 35, Found: true},
				{Table: "a", Key: 2, Value: 45, Found: true},
				{Table: "a", Key: 3, Value: 20, Found: true},
			},
			RangeReads: []RangeRead{
				{Table: "a", Lo: 0, Hi: 47, Keys: []uint64{1, 2, 3}},
				// a[1]=35 is excluded by the partial index (35%7==0);
				// a[2]=45 -> 13, a[3]=20 -> 4.
				{Table: "a", Index: "ix", Lo: 0, Hi: 15, Keys: []uint64{4, 13}},
			},
		},
		{
			EndTS: 30,
			Reads: []Read{
				{Table: "a", Key: 3, Value: 20, Found: true},
				{Table: "a", Key: 1, Value: 35, Found: true},
			},
			Writes: []Write{
				{Table: "a", Key: 3, Value: 0},
				{Table: "a", Key: 1, Value: 55},
				{Table: "b", Key: 11, Value: 3},
			},
		},
		{
			EndTS: 40,
			Reads: []Read{
				{Table: "a", Key: 3, Value: 0, Found: true},
			},
			Writes: []Write{
				{Table: "b", Op: WriteDelete, Key: 11},
				{Table: "a", Op: WriteDelete, Key: 3},
			},
		},
		{
			EndTS: 50,
			Reads: []Read{
				{Table: "a", Key: 1, Value: 55, Found: true},
				{Table: "a", Key: 2, Value: 45, Found: true},
			},
			RangeReads: []RangeRead{
				{Table: "a", Lo: 0, Hi: 47, Keys: []uint64{1, 2}},
				{Table: "b", Lo: 0, Hi: 47, Keys: []uint64{10}},
				// a[1]=55 -> 7, a[2]=45 -> 13.
				{Table: "a", Index: "ix", Lo: 0, Hi: 15, Keys: []uint64{7, 13}},
			},
		},
	}
	return h
}

// bankMutation is one corpus entry: a constraint selection, a mutation of
// the known-good history, and the verdict class both checkers must reach.
type bankMutation struct {
	name            string
	cons, ref, rule bool
	mutate          func(h *History)
	want            string // verdict kind: ok, read, range, constraint, error
	wantSub         string // required substring of the error, "" for ok
}

func (m *bankMutation) build() *History {
	h := bankHistory(m.cons, m.ref, m.rule)
	if m.mutate != nil {
		m.mutate(h)
	}
	return h
}

func bankMutations() []bankMutation {
	return []bankMutation{
		{
			name: "good", cons: true, ref: true, rule: true,
			want: "ok",
		},
		{
			// The transfer's credit leg vanishes: the audit's read of a[2]
			// sees a value the model never reached.
			name: "missing-key",
			mutate: func(h *History) {
				t := &h.Txns[0]
				t.Writes = append(t.Writes[:1], t.Writes[2:]...)
			},
			want: "read", wantSub: "a[2]",
		},
		{
			// The audit scan claims a row the model does not hold.
			name: "extra-key", cons: true, ref: true, rule: true,
			mutate: func(h *History) {
				rr := &h.Txns[1].RangeReads[0]
				rr.Keys = append(rr.Keys, 7)
			},
			want: "range", wantSub: "extra=[7]",
		},
		{
			// The audit reads a[1]'s pre-transfer balance.
			name: "stale-read", cons: true, ref: true, rule: true,
			mutate: func(h *History) {
				h.Txns[1].Reads[0].Value = 50
			},
			want: "read", wantSub: "a[1]",
		},
		{
			// The second transfer computes a[1]'s new balance from the
			// pre-history value (50+20) as if the first transfer's update
			// was lost; the final audit catches the divergence.
			name: "lost-update",
			mutate: func(h *History) {
				h.Txns[2].Writes[1].Value = 70
			},
			want: "read", wantSub: "txn@50",
		},
		{
			// Money from thin air: a new account appears with no debit.
			name: "conservation", cons: true,
			mutate: func(h *History) {
				h.Txns = append(h.Txns, Txn{
					EndTS:  60,
					Writes: []Write{{Table: "a", Key: 5, Value: 7}},
				})
			},
			want: "constraint", wantSub: `"bank-conservation"`,
		},
		{
			// A ledger row referencing an account that never existed.
			name: "ref-orphan-insert", ref: true,
			mutate: func(h *History) {
				h.Txns = append(h.Txns, Txn{
					EndTS:  60,
					Writes: []Write{{Table: "b", Key: 12, Value: 9}},
				})
			},
			want: "constraint", wantSub: `"ledger-ref"`,
		},
		{
			// Deleting an account strands its surviving ledger row.
			name: "ref-orphan-parent-delete", ref: true,
			mutate: func(h *History) {
				h.Txns = append(h.Txns, Txn{
					EndTS:  60,
					Writes: []Write{{Table: "a", Op: WriteDelete, Key: 1}},
				})
			},
			want: "constraint", wantSub: "b[10] references missing a[1]",
		},
		{
			// An orphan created and repaired inside one transaction is not
			// a violation: constraints hold at transaction boundaries only.
			name: "ref-fixed-same-txn", ref: true,
			mutate: func(h *History) {
				h.Txns = append(h.Txns, Txn{
					EndTS: 60,
					Writes: []Write{
						{Table: "b", Key: 12, Value: 9},
						{Table: "a", Key: 9, Value: 5},
					},
				})
			},
			want: "ok",
		},
		{
			// A ledger write travelling without its accounts write.
			name: "txn-rule", rule: true,
			mutate: func(h *History) {
				h.Txns = append(h.Txns, Txn{
					EndTS:  60,
					Writes: []Write{{Table: "b", Key: 12, Value: 1}},
				})
			},
			want: "constraint", wantSub: `"coupled-writes"`,
		},
		{
			name: "duplicate-endts", cons: true, ref: true, rule: true,
			mutate: func(h *History) {
				h.Txns[1].EndTS = 10
			},
			want: "error", wantSub: "duplicate end timestamp 10",
		},
		{
			name: "unknown-index",
			mutate: func(h *History) {
				h.Txns[1].RangeReads = append(h.Txns[1].RangeReads,
					RangeRead{Table: "a", Index: "nope", Lo: 0, Hi: 47})
			},
			want: "error", wantSub: `unknown index "nope"`,
		},
	}
}

func verdictKind(err error) string {
	switch err.(type) {
	case nil:
		return "ok"
	case *Violation:
		return "read"
	case *RangeViolation:
		return "range"
	case *ConstraintViolation:
		return "constraint"
	default:
		return "error"
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBankMutations is the checker-can-fail proof: each seeded defect in the
// multi-table bank history must fire its specific violation class, and the
// incremental and rebuild checkers must agree verdict-for-verdict.
func TestBankMutations(t *testing.T) {
	for _, m := range bankMutations() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			fast := m.build().Validate()
			slow := m.build().ValidateRebuild()
			if got := verdictKind(fast); got != m.want {
				t.Fatalf("Validate verdict = %s (%v), want %s", got, fast, m.want)
			}
			if errString(fast) != errString(slow) {
				t.Fatalf("checkers disagree:\n fast: %v\n slow: %v", fast, slow)
			}
			if m.wantSub != "" && !strings.Contains(errString(fast), m.wantSub) {
				t.Fatalf("error %q does not contain %q", errString(fast), m.wantSub)
			}
		})
	}
}

// TestValidateIndexedCompat: the pre-existing single-table entry point must
// route through the multi-table checker unchanged.
func TestValidateIndexedCompat(t *testing.T) {
	initial := map[uint64]uint64{1: 10, 2: 14}
	txns := []Txn{{
		EndTS:      5,
		RangeReads: []RangeRead{{Table: "rows", Index: "mod", Lo: 0, Hi: 7, Keys: []uint64{2, 6}}},
	}}
	mod := map[string]IndexKeyFn{
		"mod": func(key, value uint64) (uint64, bool) { return value % 8, true },
	}
	if err := ValidateIndexed(initial, "rows", txns, mod); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	txns[0].RangeReads[0].Keys = []uint64{2}
	err := ValidateIndexed(initial, "rows", txns, mod)
	rv, ok := err.(*RangeViolation)
	if !ok || len(rv.Missing) != 1 || rv.Missing[0] != 6 {
		t.Fatalf("want missing=[6], got %v", err)
	}
}

// TestSyntheticDifferential validates generated histories on both paths and
// then tampers with a scan, requiring byte-identical rejection.
func TestSyntheticDifferential(t *testing.T) {
	tamper := func(h *History) bool {
		for i := range h.Txns {
			rr := &h.Txns[i].RangeReads[0]
			if len(rr.Keys) > 0 {
				rr.Keys = append(rr.Keys, rr.Keys[0]) // duplicate: an extra row
				return true
			}
		}
		return false
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if err := Synthetic(256, 500, 16, seed).Validate(); err != nil {
			t.Fatalf("seed %d: incremental rejected valid history: %v", seed, err)
		}
		if err := Synthetic(256, 500, 16, seed).ValidateRebuild(); err != nil {
			t.Fatalf("seed %d: rebuild rejected valid history: %v", seed, err)
		}
		h1 := Synthetic(256, 500, 16, seed)
		h2 := Synthetic(256, 500, 16, seed)
		if !tamper(h1) || !tamper(h2) {
			t.Fatalf("seed %d: no scan to tamper with", seed)
		}
		e1, e2 := h1.Validate(), h2.ValidateRebuild()
		if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
			t.Fatalf("seed %d: tampered verdicts disagree:\n fast: %v\n slow: %v", seed, e1, e2)
		}
		if _, ok := e1.(*RangeViolation); !ok {
			t.Fatalf("seed %d: want RangeViolation, got %T", seed, e1)
		}
	}
}

// TestEncodeDecodeRoundTrip: corpus histories inside the codec universe must
// survive encoding, and the decoded history must reach the same verdict kind
// class when the defect is structural (reads/writes/scans — constraint
// semantics are remapped by the codec and may differ).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range bankMutations() {
		if m.cons || m.ref || m.rule {
			continue // codec remaps constraints to its own fixed classes
		}
		m := m
		t.Run(m.name, func(t *testing.T) {
			orig := m.build()
			dec := decodeHistory(encodeHistory(orig))
			if len(dec.Txns) != len(orig.Txns) {
				t.Fatalf("round trip lost txns: %d -> %d", len(orig.Txns), len(dec.Txns))
			}
			e1, e2 := dec.Validate(), decodeHistory(encodeHistory(m.build())).ValidateRebuild()
			if errString(e1) != errString(e2) {
				t.Fatalf("decoded verdicts disagree:\n fast: %v\n slow: %v", e1, e2)
			}
		})
	}
}

func benchValidate(b *testing.B, rebuild bool) {
	h := Synthetic(4096, 4000, 32, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if rebuild {
			err = h.ValidateRebuild()
		} else {
			err = h.Validate()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateIncremental vs BenchmarkValidateRebuild is the checker
// micro-benchmark behind PR 10's >=10x claim (docs/testing.md).
func BenchmarkValidateIncremental(b *testing.B) { benchValidate(b, false) }

func BenchmarkValidateRebuild(b *testing.B) { benchValidate(b, true) }
