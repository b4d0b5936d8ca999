package soak_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/soak"
	"repro/internal/workload/seedtest"
)

var soakSchemes = []core.Scheme{core.SingleVersion, core.MVPessimistic, core.MVOptimistic}

// TestSoakDeterministic: with one worker, the same seed produces the same
// committed history — byte-identical history hashes across two full runs,
// including a faulted (crash + recovery) episode.
func TestSoakDeterministic(t *testing.T) {
	for _, scheme := range soakSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := soak.Config{
				Scheme:        scheme,
				Seed:          seedtest.Base(t, 31337),
				Workers:       1,
				Episodes:      2, // episode 0 clean, episode 1 faulted
				TxnsPerWorker: 60,
				Faults:        true,
				Dir:           t.TempDir(),
			}
			r1, err := soak.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := soak.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Hash != r2.Hash || r1.Commits != r2.Commits {
				t.Fatalf("same seed, different runs: %+v vs %+v", r1, r2)
			}
			if r1.Hash == 0 {
				t.Fatal("degenerate run: zero history hash")
			}
		})
	}
}

// TestSoakEpisodeReplay: replaying one episode of a longer run in isolation
// (the repro command's -first-episode path) reproduces its hash.
func TestSoakEpisodeReplay(t *testing.T) {
	cfg := soak.Config{
		Scheme:        core.MVOptimistic,
		Seed:          seedtest.Base(t, 555),
		Workers:       1,
		TxnsPerWorker: 50,
		Faults:        true,
		Dir:           t.TempDir(),
	}
	full, err := soak.RunEpisode(cfg, 3) // odd: faulted
	if err != nil {
		t.Fatal(err)
	}
	replay, err := soak.RunEpisode(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if full.Hash != replay.Hash || full.Fault != replay.Fault {
		t.Fatalf("episode replay diverged: %+v vs %+v", full, replay)
	}
	if full.Fault == "" {
		t.Fatal("odd episode with Faults enabled should have a fault")
	}
}

// TestSoakFaultedConcurrent: a short multi-worker faulted soak is green on
// every engine (run under -race in CI at GOMAXPROCS=4).
func TestSoakFaultedConcurrent(t *testing.T) {
	txns := 80
	if testing.Short() {
		txns = 30
	}
	for _, scheme := range soakSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := soak.Config{
				Scheme:        scheme,
				Seed:          seedtest.Base(t, 2026),
				Workers:       4,
				Episodes:      2,
				TxnsPerWorker: txns,
				Faults:        true,
				Dir:           t.TempDir(),
			}
			res, err := soak.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatal("degenerate soak: no commits")
			}
		})
	}
}

// TestSoakCountsUnrunApart: a transaction a worker never ran because a
// crash degraded the database first is counted as unrun, not as an abort.
// A clean episode runs every transaction, each a commit or an abort; a
// faulted one stops at its crash, and its aborts are at most the
// transactions it ran.
func TestSoakCountsUnrunApart(t *testing.T) {
	const txns = 60
	cfg := soak.Config{
		Scheme:        core.SingleVersion,
		Seed:          seedtest.Base(t, 4242),
		Workers:       1,
		TxnsPerWorker: txns,
		Faults:        true,
		Dir:           t.TempDir(),
	}
	stopped := false
	for ep := 0; ep < 6; ep++ {
		r, err := soak.RunEpisode(cfg, ep)
		if err != nil {
			t.Fatal(err)
		}
		if r.Fault == "" {
			if r.Unrun != 0 || r.Commits+r.Aborts != txns {
				t.Fatalf("clean episode %d: %+v, want every one of %d transactions a commit or an abort", ep, r, txns)
			}
			continue
		}
		if r.Unrun < 0 || r.Aborts > txns-r.Unrun || r.Commits+r.Aborts+r.Unrun > txns {
			t.Fatalf("faulted episode %d: %+v does not add up to %d transactions", ep, r, txns)
		}
		stopped = stopped || r.Unrun > 0
	}
	if !stopped {
		t.Fatal("no faulted episode stopped its worker early")
	}
}

// TestViolationRepro: a violation's message carries the seed and the exact
// one-episode repro command.
func TestViolationRepro(t *testing.T) {
	v := &soak.Violation{
		Scheme:      core.MVPessimistic,
		Episode:     7,
		EpisodeSeed: 123456,
		Fault:       "wal.tear",
		BaseSeed:    42,
		Workers:     4,
		Txns:        150,
		Accounts:    48,
		Faulted:     true,
		Err:         errors.New("boom"),
	}
	msg := v.Error()
	want := "go run ./cmd/mvsoak -engine mvl -seed 42 -workers 4 -txns 150 -accounts 48 -first-episode 7 -episodes 1 -faults"
	if !strings.Contains(msg, want) {
		t.Fatalf("violation message lacks repro command:\n%s\nwant substring:\n%s", msg, want)
	}
	if !strings.Contains(msg, "123456") || !strings.Contains(msg, "boom") {
		t.Fatalf("violation message lacks seed or cause: %s", msg)
	}
	if !errors.Is(v, v.Err) {
		t.Fatal("Violation must unwrap to its cause")
	}
}
