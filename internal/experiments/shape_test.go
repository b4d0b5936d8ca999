package experiments

// Shape tests: run every experiment at reduced scale and assert the paper's
// qualitative findings — who wins under which workload, and how the picture
// changes as the workload shifts. Absolute throughput is machine dependent
// and is not asserted; the assertions use large tolerances because
// single-box runs are noisy.

import (
	"testing"
)

func testCfg(t *testing.T) Config {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment shape tests are long; skipped with -short")
	}
	return TestConfig()
}

func last(s Series) float64 {
	return s.Y[len(s.Y)-1]
}

func at(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	t.Fatalf("series %s has no x=%v (xs=%v)", s.Label, x, s.X)
	return 0
}

func series(t *testing.T, r *Report, label string) Series {
	t.Helper()
	s, ok := r.SeriesByLabel(label)
	if !ok {
		t.Fatalf("%s: no series %q", r.ID, label)
	}
	return s
}

// Figure 4: everything commits at every multiprogramming level, and under
// low contention the single-version engine is competitive at MPL 1 (the
// paper's headline: 1V is cheap when transactions are short and contention
// is low).
func TestFig4Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Fig4()
	v1 := series(t, rep, "1V")
	mvo := series(t, rep, "MV/O")
	mvl := series(t, rep, "MV/L")
	for _, s := range []Series{v1, mvo, mvl} {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s has zero throughput at MPL %v", s.Label, s.X[i])
			}
		}
	}
	// 1V is at least competitive with the MV schemes at MPL 1 (within
	// noise): the MV overhead of version management is real. Cross-engine
	// ratios are meaningless under the race detector's instrumentation.
	if !raceEnabled && at(t, v1, 1) < 0.6*at(t, mvo, 1) {
		t.Errorf("1V (%v) unexpectedly far below MV/O (%v) at MPL 1",
			at(t, v1, 1), at(t, mvo, 1))
	}
}

// Figure 5: the hotspot run still commits over the whole sweep for every
// scheme — no livelock, no collapse to zero.
func TestFig5Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Fig5()
	for _, label := range []string{"1V", "MV/L", "MV/O"} {
		s := series(t, rep, label)
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s has zero throughput at MPL %v under contention", label, s.X[i])
			}
		}
	}
}

// Table 3: higher isolation levels never increase throughput, and for the
// single-version engine serializability costs no more than repeatable read
// (the hash-key lock already protects against phantoms — the paper's 1.8%
// vs 1.8% observation).
func TestTable3Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Table3()
	for _, label := range []string{"1V", "MV/L", "MV/O"} {
		s := series(t, rep, label)
		rc, rr, ser := s.Y[0], s.Y[1], s.Y[2]
		if rc <= 0 || rr <= 0 || ser <= 0 {
			t.Fatalf("%s: zero throughput in %v", label, s.Y)
		}
		// Generous tolerances: separate measurement runs on a shared box
		// vary by tens of percent.
		if rr > rc*1.5 {
			t.Errorf("%s: repeatable read (%v) above read committed (%v)", label, rr, rc)
		}
		if ser > rr*1.6 {
			t.Errorf("%s: serializable (%v) above repeatable read (%v)", label, ser, rr)
		}
	}
	v1 := series(t, rep, "1V")
	rr, ser := v1.Y[1], v1.Y[2]
	if ser < 0.5*rr {
		t.Errorf("1V: serializable (%v) much worse than repeatable read (%v); hash-key locks should make them nearly equal", ser, rr)
	}
}

// Figures 6: as the share of read-only transactions grows, the gap between
// 1V and the MV schemes closes (the paper's Section 5.2.1 finding).
func TestFig6Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Fig6()
	v1 := series(t, rep, "1V")
	mvo := series(t, rep, "MV/O")
	gapAt := func(x float64) float64 {
		a, b := at(t, v1, x), at(t, mvo, x)
		if a <= 0 {
			t.Fatalf("1V zero at %v", x)
		}
		return (a - b) / a
	}
	if raceEnabled {
		return // cross-engine ratios are instrumentation artifacts under -race
	}
	if gapAt(100) > gapAt(0)+0.15 { // slack for cross-run noise
		t.Errorf("gap did not close: %0.2f at 0%% read-only vs %0.2f at 100%%",
			gapAt(0), gapAt(100))
	}
	// At 100% read-only the schemes are comparable.
	if at(t, mvo, 100) < 0.55*at(t, v1, 100) {
		t.Errorf("MV/O (%v) far below 1V (%v) on pure reads", at(t, mvo, 100), at(t, v1, 100))
	}
}

// Figure 7: under high contention everything still commits across the mix
// sweep and read-only work scales the totals up.
func TestFig7Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Fig7()
	for _, label := range []string{"1V", "MV/L", "MV/O"} {
		s := series(t, rep, label)
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s zero at ratio %v", label, s.X[i])
			}
		}
		if last(s) < s.Y[0] {
			t.Errorf("%s: pure read-only mix (%v) slower than pure updates (%v)", label, last(s), s.Y[0])
		}
	}
}

// Figures 8 and 9 — the paper's central result. A single long read-only
// transaction collapses 1V update throughput (the paper reports a 75% drop
// at x=1 and an 80x MV advantage at x=12); the MV engines keep updating.
// MV read throughput also stays ahead of 1V.
func TestFig8And9Shape(t *testing.T) {
	cfg := testCfg(t)
	fig8, fig9 := cfg.Fig8And9()

	v1 := series(t, fig8, "1V")
	mvl := series(t, fig8, "MV/L")
	mvo := series(t, fig8, "MV/O")

	// 1V collapses as soon as a long reader is present.
	base := v1.Y[0]
	withReaders := at(t, v1, v1.X[1])
	if base <= 0 {
		t.Fatal("1V zero update throughput with no readers")
	}
	if withReaders > 0.5*base {
		t.Errorf("1V update throughput did not collapse: %v -> %v", base, withReaders)
	}
	if raceEnabled {
		return // cross-engine ratios are instrumentation artifacts under -race
	}
	// The MV schemes dominate 1V once long readers are present.
	xmax := v1.X[len(v1.X)-1]
	v1Last := at(t, v1, xmax)
	for _, s := range []Series{mvl, mvo} {
		if at(t, s, xmax) < 5*v1Last {
			t.Errorf("%s update throughput (%v) not far above 1V (%v) with %v long readers",
				s.Label, at(t, s, xmax), v1Last, xmax)
		}
	}

	// Figure 9: MV read throughput beats 1V at the largest reader count.
	r1 := series(t, fig9, "1V")
	rl := series(t, fig9, "MV/L")
	ro := series(t, fig9, "MV/O")
	if at(t, rl, xmax) < 0.8*at(t, r1, xmax) || at(t, ro, xmax) < 0.8*at(t, r1, xmax) {
		t.Errorf("MV read throughput (MV/L %v, MV/O %v) below 1V (%v) at x=%v",
			at(t, rl, xmax), at(t, ro, xmax), at(t, r1, xmax), xmax)
	}
}

// Table 4: TATP runs on all schemes at the same order of magnitude with low
// abort rates, 1V in front (the paper: 4.2M vs 3.1M/3.1M).
func TestTable4Shape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.Table4()
	s := rep.Series[0]
	if len(s.Y) != 3 {
		t.Fatalf("expected 3 schemes, got %d", len(s.Y))
	}
	min, max := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y <= 0 {
			t.Fatal("zero TATP throughput")
		}
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	if max > 8*min {
		t.Errorf("TATP throughputs differ by more than 8x: %v", s.Y)
	}
}

// ByID covers the dispatcher.
func TestByID(t *testing.T) {
	cfg := TestConfig()
	if _, err := cfg.ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Run the cheapest experiment through the dispatcher for coverage.
	cfg.MPLs = []int{1}
	cfg.NSmall = 500
	if testing.Short() {
		t.Skip("skipped with -short")
	}
	reps, err := cfg.ByID("fig5")
	if err != nil || len(reps) != 1 {
		t.Fatalf("reps=%d err=%v", len(reps), err)
	}
	if len(reps[0].Rows) != 1 {
		t.Fatalf("rows=%d", len(reps[0].Rows))
	}
}

// Range: the range-heavy workload over the ordered index commits at every
// multiprogramming level on every scheme — the ordered access path neither
// livelocks nor collapses under concurrency.
func TestRangeShape(t *testing.T) {
	cfg := testCfg(t)
	rep := cfg.RangeScan()
	for _, label := range []string{"1V", "MV/L", "MV/O"} {
		s := series(t, rep, label)
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s has zero range-scan throughput at MPL %v", label, s.X[i])
			}
		}
	}
}
