// Package soak is the seeded deterministic soak runner behind cmd/mvsoak:
// randomized multi-table bank workloads (internal/workload) composed with
// the crash/fault machinery of the recovery suite, validated end-to-end by
// the multi-table history checker (internal/check) with cross-table
// constraints.
//
// A soak run is a sequence of bounded independent episodes, each a pure
// function of (base seed, episode number, config): open a fresh database,
// run the bank mix under serializable isolation, then validate the
// committed history — reads, range scans through primary and statement
// indexes, conservation of money, ledger referential integrity and
// balanced per-transaction deltas. With Faults enabled, odd episodes run
// against a durable store and are killed at a seeded fault point (a kill
// mid-batch or just after one, mid-checkpoint-partition, or between the
// manifest and CURRENT, or a chopped log tail), recovered, and validated
// including commit-outcome resolution by marker rows, exactly like the
// recovery crash suite.
//
// With Workers == 1 an episode is fully deterministic: the same seed
// yields the same committed history (and the same HistoryHash), including
// the crash point — checkpoints run inline on a fixed cadence instead of
// a background goroutine. With more workers the per-worker operation
// streams are still seed-determined but the interleaving is not.
package soak

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wal"
	"repro/internal/workload"
)

// marksTable holds one unique marker row per transaction, written in the
// same transaction as the bank operations: after a crash, marker presence
// decides a refused commit's outcome (marker durable <=> the whole
// transaction is durable). It also guarantees every transaction is a
// writer, so every engine hands out a non-zero serialization stamp.
const marksTable = "marks"

// FaultChop is the one scenario that is not an armed fault point: the
// workload stops mid-episode and the log tail is chopped before recovery,
// simulating destroyed acknowledged bytes.
const FaultChop = "chop"

// faultMenu are the seeded crash scenarios of a faulted episode.
var faultMenu = []string{
	wal.FaultWALTear,
	wal.FaultWALFreeze,
	ckpt.FaultPartWrite,
	ckpt.FaultManifest,
	FaultChop,
}

// Config parameterizes a soak run. Zero values select the documented
// defaults.
type Config struct {
	// Scheme selects the engine (SingleVersion, MVPessimistic, MVOptimistic).
	Scheme core.Scheme
	// Seed is the base seed; every episode derives its own stream from it.
	Seed int64
	// Workers is the number of concurrent transaction streams per episode
	// (default 4). Workers == 1 makes episodes fully deterministic.
	Workers int
	// Episodes bounds the run by episode count; Duration bounds it by wall
	// clock (checked between episodes). If both are zero, 4 episodes run.
	Episodes int
	Duration time.Duration
	// FirstEpisode offsets the episode numbering, so one episode out of a
	// longer run can be replayed in isolation: -first-episode K -episodes 1.
	FirstEpisode int
	// TxnsPerWorker is each worker's transaction budget per episode
	// (default 150).
	TxnsPerWorker int
	// Accounts and InitBalance size the bank (defaults 48 and 1000).
	Accounts    uint64
	InitBalance uint64
	// Faults runs every odd episode against a durable store with a seeded
	// crash + recovery.
	Faults bool
	// Dir is where faulted episodes place their stores (default: the
	// system temp directory). Episode directories are removed on success.
	Dir string
	// Log, when set, receives one line per episode.
	Log func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.TxnsPerWorker <= 0 {
		cfg.TxnsPerWorker = 150
	}
	if cfg.Accounts < 2 {
		cfg.Accounts = 48
	}
	if cfg.InitBalance == 0 {
		cfg.InitBalance = 1000
	}
	if cfg.Episodes <= 0 && cfg.Duration <= 0 {
		cfg.Episodes = 4
	}
	return cfg
}

// EngineFlag is the cmd/mvsoak -engine spelling of a scheme, used in repro
// command lines.
func EngineFlag(s core.Scheme) string {
	switch s {
	case core.MVOptimistic:
		return "mvo"
	case core.MVPessimistic:
		return "mvl"
	default:
		return "1v"
	}
}

// Result summarizes a run.
type Result struct {
	Episodes int
	Commits  int
	Aborts   int
	Unrun    int
	// Hash combines the episode history hashes; at Workers == 1 it is a
	// pure function of (Seed, Config).
	Hash uint64
}

// EpisodeResult summarizes one episode.
type EpisodeResult struct {
	Episode int
	Seed    int64
	Fault   string // "" for a clean episode
	Commits int
	// Aborts counts the transactions the workers ran that the engine
	// aborted; Unrun counts those they never started because a crash had
	// degraded the database first.
	Aborts int
	Unrun  int
	// Hash fingerprints the validated committed history (see HistoryHash).
	Hash uint64
}

// Violation is a detected correctness failure: a serializability or
// constraint violation from the checker, an in-transaction invariant
// failure, or a durable commit lost by recovery. It carries everything
// needed to replay the offending episode.
type Violation struct {
	Scheme      core.Scheme
	Episode     int
	EpisodeSeed int64
	Fault       string
	BaseSeed    int64
	Workers     int
	Txns        int
	Accounts    uint64
	Faulted     bool
	Err         error
}

// Error implements error; it includes the one-line repro command.
func (v *Violation) Error() string {
	return fmt.Sprintf("soak: engine %s episode %d (episode seed %d, fault %q): %v\nrepro: %s",
		EngineFlag(v.Scheme), v.Episode, v.EpisodeSeed, v.Fault, v.Err, v.Repro())
}

// Unwrap exposes the underlying checker or assertion error.
func (v *Violation) Unwrap() error { return v.Err }

// Repro returns the command replaying exactly the failing episode.
func (v *Violation) Repro() string {
	s := fmt.Sprintf("go run ./cmd/mvsoak -engine %s -seed %d -workers %d -txns %d -accounts %d -first-episode %d -episodes 1",
		EngineFlag(v.Scheme), v.BaseSeed, v.Workers, v.Txns, v.Accounts, v.Episode)
	if v.Faulted {
		s += " -faults"
	}
	return s
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EpisodeSeed derives episode ep's seed from the base seed.
func EpisodeSeed(base int64, ep int) int64 {
	return int64(mix64(uint64(base) + uint64(ep+1)*0x9e3779b97f4a7c15))
}

// Run executes episodes until the configured bound and returns the
// aggregate result. The returned error is a *Violation for correctness
// failures (with seed and repro command) or a plain error for environment
// failures (store I/O, setup).
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	var res Result
	for n := 0; ; n++ {
		if cfg.Episodes > 0 && n >= cfg.Episodes {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		er, err := RunEpisode(cfg, cfg.FirstEpisode+n)
		res.Episodes++
		res.Commits += er.Commits
		res.Aborts += er.Aborts
		res.Unrun += er.Unrun
		res.Hash = res.Hash*0x100000001b3 ^ er.Hash
		if cfg.Log != nil {
			cfg.Log("episode %d: engine=%s fault=%q commits=%d aborts=%d unrun=%d hash=%016x",
				er.Episode, EngineFlag(cfg.Scheme), er.Fault, er.Commits, er.Aborts, er.Unrun, er.Hash)
		}
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// RunEpisode runs exactly one episode (clean or faulted per the config and
// episode parity) and validates its history.
func RunEpisode(cfg Config, ep int) (EpisodeResult, error) {
	cfg = cfg.withDefaults()
	e := &episode{cfg: &cfg, num: ep, seed: EpisodeSeed(cfg.Seed, ep)}
	if cfg.Faults && ep%2 == 1 {
		erng := rand.New(rand.NewSource(e.seed))
		e.fault = faultMenu[erng.Uint64()%uint64(len(faultMenu))]
		e.countdown = 2 + int(erng.Uint64()%12)
		return e.runFaulted()
	}
	return e.runClean()
}

// episode carries one episode's identity and engine objects.
type episode struct {
	cfg       *Config
	num       int
	seed      int64
	fault     string
	countdown int

	db    *core.Database
	bank  *workload.Bank
	marks *core.Table
	cp    *ckpt.Checkpointer // nil in clean episodes

	// ran and aborts count the transactions runWorkers ran and, of those,
	// the ones the engine aborted.
	ran, aborts int
}

// vio wraps a correctness failure with the episode's replay coordinates.
func (e *episode) vio(err error) error {
	return &Violation{
		Scheme:      e.cfg.Scheme,
		Episode:     e.num,
		EpisodeSeed: e.seed,
		Fault:       e.fault,
		BaseSeed:    e.cfg.Seed,
		Workers:     e.cfg.Workers,
		Txns:        e.cfg.TxnsPerWorker,
		Accounts:    e.cfg.Accounts,
		Faulted:     e.cfg.Faults,
		Err:         err,
	}
}

func (e *episode) result(outs []outcome, hash uint64) EpisodeResult {
	r := EpisodeResult{Episode: e.num, Seed: e.seed, Fault: e.fault, Hash: hash}
	r.Commits = len(outs)
	r.Aborts = e.aborts
	r.Unrun = e.cfg.Workers*e.cfg.TxnsPerWorker - e.ran
	return r
}

func (e *episode) openSchema(db *core.Database) (*workload.Bank, *core.Table, error) {
	bank, err := workload.OpenBank(db, e.cfg.Accounts, e.cfg.InitBalance)
	if err != nil {
		return nil, nil, err
	}
	marks, err := db.CreateTable(core.TableSpec{
		Name:    marksTable,
		Indexes: []core.IndexSpec{{Name: "pk", Key: workload.RowKey, Buckets: 1 << 10}},
	})
	if err != nil {
		return nil, nil, err
	}
	return bank, marks, nil
}

// idHi bounds the ledger/marker id space for checkpoint partitioning.
func (e *episode) idHi() uint64 { return uint64(e.cfg.Workers+2) << 40 }

// outcome is one transaction whose commit reached the log. It is definite
// when the commit was acknowledged; a commit the log refused is not, and
// its marker decides after recovery whether it survived.
type outcome struct {
	ft       check.Txn
	marker   uint64
	definite bool
}

// runTxn executes one bank transaction plus its marker insert. committed
// reports whether the commit was acknowledged; a non-nil error is a
// correctness failure (engine aborts return committed=false, err=nil). When
// the log refused the commit, the footprint carries the end timestamp the
// commit drew, so a refused transaction that recovery resurrects can be
// placed in the history.
func (e *episode) runTxn(rng *rand.Rand, id uint64) (check.Txn, bool, error) {
	tx := e.db.Begin(core.WithIsolation(core.Serializable))
	ft, err := e.bank.RunTxn(tx, rng, id)
	if err != nil {
		if errors.Is(err, workload.ErrReadYourWrites) || errors.Is(err, workload.ErrConservation) {
			// Not a verdict yet. An optimistic reader's in-flight view is
			// conditional: speculative reads take commit dependencies on
			// preparing transactions, and when one of those aborts mid-read
			// the reader observes a mixed state for the moment it takes the
			// abort cascade to reach it. The engine never COMMITS such a
			// view — so let commit decide. Failure means the engine
			// correctly killed a doomed speculation (an ordinary abort);
			// success means the inconsistent reads really serialized, and
			// the episode fails with the in-flight evidence.
			if end, cerr := tx.CommitTS(); cerr != nil || end == 0 {
				return ft, false, nil
			}
			return ft, false, err
		}
		_ = tx.Abort() // the run error is the signal; abort of a doomed txn
		return ft, false, nil
	}
	if err := tx.Insert(e.marks, workload.Row(id, 1)); err != nil {
		_ = tx.Abort()
		return ft, false, nil
	}
	ft.Writes = append(ft.Writes, check.Write{Table: marksTable, Key: id, Value: 1})
	end, err := tx.CommitTS()
	if err != nil {
		ft.EndTS = end // non-zero: the log refused a drawn commit
		return ft, false, nil
	}
	if end == 0 {
		return ft, false, fmt.Errorf("committed writer transaction got a zero serialization stamp")
	}
	ft.EndTS = end
	return ft, true, nil
}

// runWorkers drives the per-episode transaction streams and collects the
// outcomes of every commit that reached the log. With one worker it runs
// inline (deterministic), interleaving checkpoints every few transactions
// in faulted episodes; with more it spawns goroutines and checkpoints from
// the coordinator, like the recovery crash suite. Either way the streams
// stop once a crash has degraded the database.
func (e *episode) runWorkers() ([]outcome, error) {
	cfg := e.cfg
	if cfg.Workers == 1 {
		rng := rand.New(rand.NewSource(EpisodeSeed(e.seed, 1)))
		ckptEvery := cfg.TxnsPerWorker / 5
		if ckptEvery < 10 {
			ckptEvery = 10
		}
		chopAt := -1
		if e.fault == FaultChop {
			chopAt = cfg.TxnsPerWorker / 2
		}
		var outs []outcome
		for i := 0; i < cfg.TxnsPerWorker && i != chopAt && e.db.Degraded() == nil; i++ {
			if e.cp != nil && i%ckptEvery == ckptEvery-1 {
				_, _ = e.cp.Run() // checkpoint errors (injected faults) are the scenario
				// Drain the checkpoint's async log record now: left pending,
				// it would merge into a later commit's batch or timer-flush on
				// its own depending on scheduling, moving the injected crash
				// point between runs of the same seed.
				_ = e.db.WAL().Flush() // flush errors are the scenario too
			}
			id := uint64(1)<<40 | uint64(i)
			ft, committed, err := e.runTxn(rng, id)
			if err != nil {
				return outs, e.vio(err)
			}
			e.ran++
			if committed || ft.EndTS != 0 {
				outs = append(outs, outcome{ft: ft, marker: id, definite: committed})
			} else {
				e.aborts++
			}
		}
		return outs, nil
	}

	var (
		mu   sync.Mutex
		outs []outcome
		verr error
	)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ran, aborts := 0, 0
			defer func() {
				mu.Lock()
				e.ran += ran
				e.aborts += aborts
				mu.Unlock()
			}()
			rng := rand.New(rand.NewSource(EpisodeSeed(e.seed, worker+1)))
			for i := 0; i < cfg.TxnsPerWorker && e.db.Degraded() == nil; i++ {
				id := uint64(worker+1)<<40 | uint64(i)
				ft, committed, err := e.runTxn(rng, id)
				if err != nil {
					mu.Lock()
					if verr == nil {
						verr = err
					}
					mu.Unlock()
					return
				}
				ran++
				if committed || ft.EndTS != 0 {
					mu.Lock()
					outs = append(outs, outcome{ft: ft, marker: id, definite: committed})
					mu.Unlock()
				} else {
					aborts++
				}
			}
		}(w)
	}
	if e.cp != nil {
		// Coordinator: live checkpoints racing the workload.
		for i := 0; i < 25 && e.db.Degraded() == nil; i++ {
			time.Sleep(2 * time.Millisecond)
			_, _ = e.cp.Run() // errors (injected faults) are the scenario
		}
	}
	wg.Wait()
	if verr != nil {
		return outs, e.vio(verr)
	}
	return outs, nil
}

// readBack appends the closing transaction: a consistent snapshot reading
// every account (point + primary range scan) and every statement prefix,
// so anything the engine or recovery lost, duplicated or reordered shows
// up as a serializability violation of these reads.
func (e *episode) readBack(db *core.Database, b *workload.Bank, endTS uint64) (check.Txn, error) {
	t := check.Txn{EndTS: endTS}
	tx := db.Begin(core.WithIsolation(core.SnapshotIsolation))
	for k := uint64(0); k < b.N; k++ {
		row, ok, err := tx.Lookup(b.Accounts, 0, k, nil)
		if err != nil {
			_ = tx.Abort()
			return t, err
		}
		r := check.Read{Table: workload.BankAccountsTable, Key: k, Found: ok}
		if ok {
			r.Value = workload.RowVal(row.Payload())
		}
		t.Reads = append(t.Reads, r)
	}
	rr := check.RangeRead{Table: workload.BankAccountsTable, Lo: 0, Hi: b.N - 1}
	err := tx.ScanRange(b.Accounts, 0, 0, b.N-1, nil, func(r core.Row) bool {
		rr.Keys = append(rr.Keys, workload.RowKey(r.Payload()))
		return true
	})
	if err != nil {
		_ = tx.Abort()
		return t, err
	}
	t.RangeReads = append(t.RangeReads, rr)
	for a := uint64(0); a < b.N; a++ {
		lo, hi := workload.BankStmtLayout.MustPrefixRange(a)
		srr := check.RangeRead{Table: workload.BankLedgerTable, Index: workload.BankStmtIndex, Lo: lo, Hi: hi}
		err := tx.ScanPrefix(b.Ledger, 1, []uint64{a}, nil, func(r core.Row) bool {
			p := r.Payload()
			id, v := workload.RowKey(p), workload.RowVal(p)
			srr.Keys = append(srr.Keys, workload.BankStmtLayout.MustEncode(a, id))
			t.Reads = append(t.Reads, check.Read{Table: workload.BankLedgerTable, Key: id, Value: v, Found: true})
			return true
		})
		if err != nil {
			_ = tx.Abort()
			return t, err
		}
		t.RangeReads = append(t.RangeReads, srr)
	}
	if err := tx.Commit(); err != nil {
		return t, err
	}
	return t, nil
}

// validate replays the durable history through the multi-table checker
// with the bank's cross-table constraints.
func (e *episode) validate(b *workload.Bank, history []check.Txn) error {
	initial := b.InitialModel()
	initial[marksTable] = map[uint64]uint64{}
	h := &check.History{
		Initial:     initial,
		Txns:        history,
		Indexers:    b.Indexers(),
		Constraints: b.Constraints(),
	}
	return h.Validate()
}

func maxEndTS(outs []outcome) uint64 {
	var m uint64
	for _, o := range outs {
		if o.ft.EndTS > m {
			m = o.ft.EndTS
		}
	}
	return m
}

// runClean is an in-memory episode: run, read back, validate.
func (e *episode) runClean() (EpisodeResult, error) {
	db, err := core.Open(core.Config{Scheme: e.cfg.Scheme, LockTimeout: 50 * time.Millisecond})
	if err != nil {
		return EpisodeResult{Episode: e.num, Seed: e.seed}, err
	}
	defer func() { _ = db.Close() }() // in-memory teardown; nothing durable to lose
	bank, marks, err := e.openSchema(db)
	if err != nil {
		return EpisodeResult{Episode: e.num, Seed: e.seed}, err
	}
	bank.Load(db)
	e.db, e.bank, e.marks = db, bank, marks

	outs, err := e.runWorkers()
	if err != nil {
		return e.result(outs, 0), err
	}
	history := make([]check.Txn, 0, len(outs)+1)
	for _, o := range outs {
		history = append(history, o.ft)
	}
	final, err := e.readBack(db, bank, maxEndTS(outs)+1)
	if err != nil {
		return e.result(outs, 0), err
	}
	history = append(history, final)
	if err := e.validate(bank, history); err != nil {
		return e.result(outs, 0), e.vio(err)
	}
	return e.result(outs, HistoryHash(history)), nil
}

// runFaulted is a durable episode: logged load, pre-crash checkpoint,
// seeded fault, crash, recovery into a fresh database, commit-outcome
// resolution by markers, read-back and validation.
func (e *episode) runFaulted() (EpisodeResult, error) {
	er := EpisodeResult{Episode: e.num, Seed: e.seed, Fault: e.fault}
	parent := e.cfg.Dir
	if parent == "" {
		parent = os.TempDir()
	}
	dir, err := os.MkdirTemp(parent, "mvsoak-ep")
	if err != nil {
		return er, err
	}
	f := wal.NewFaults()
	store, err := ckpt.OpenStoreWith(dir, ckpt.StoreOptions{Faults: f})
	if err != nil {
		return er, err
	}
	db, err := core.Open(core.Config{
		Scheme:      e.cfg.Scheme,
		LogSink:     store,
		Durability:  core.DurabilityFlush,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		return er, err
	}
	bank, marks, err := e.openSchema(db)
	if err != nil {
		return er, err
	}
	if err := bank.LoadTx(db); err != nil {
		return er, err
	}
	cp := ckpt.New(db, store, []ckpt.TableSpec{
		{Table: bank.Accounts, Partitions: 2, Lo: 0, Hi: bank.N - 1},
		{Table: bank.Ledger, Partitions: 3, Lo: 0, Hi: e.idHi()},
		{Table: marks, Partitions: 2, Lo: 0, Hi: e.idHi()},
	}, ckpt.Options{})
	if _, err := cp.Run(); err != nil {
		return er, fmt.Errorf("pre-crash checkpoint: %w", err)
	}

	// Drain any bytes still pending from the load and the pre-crash
	// checkpoint before arming: the fault countdown must start from an
	// empty pipeline or the crash point depends on flusher timing.
	if err := db.WAL().Flush(); err != nil {
		return er, err
	}
	switch e.fault {
	case ckpt.FaultPartWrite:
		f.Arm(e.fault, e.countdown%3)
	case ckpt.FaultManifest:
		f.Arm(e.fault, 0)
	case FaultChop:
		// No armed point: the workload stops mid-episode, tail chopped below.
	default:
		f.Arm(e.fault, e.countdown)
	}
	e.db, e.bank, e.marks, e.cp = db, bank, marks, cp

	outs, verr := e.runWorkers()
	if verr != nil {
		return e.result(outs, 0), verr
	}
	_ = db.Close()    // post-crash teardown: the latched fault error is expected
	_ = store.Close() // ditto
	if e.fault == FaultChop {
		if err := store.ChopTail(13); err != nil {
			return e.result(outs, 0), err
		}
	}

	// Recover into a fresh database without a log sink: replaying recovery
	// inserts into a new log would re-append old history.
	store2, err := ckpt.OpenStore(dir)
	if err != nil {
		return e.result(outs, 0), err
	}
	db2, err := core.Open(core.Config{Scheme: e.cfg.Scheme, LockTimeout: 50 * time.Millisecond})
	if err != nil {
		return e.result(outs, 0), err
	}
	defer func() { _ = db2.Close() }() // in-memory teardown
	bank2, marks2, err := e.openSchema(db2)
	if err != nil {
		return e.result(outs, 0), err
	}
	if _, err := recovery.Recover(db2, recovery.TableSet{
		workload.BankAccountsTable: bank2.Accounts,
		workload.BankLedgerTable:   bank2.Ledger,
		marksTable:                 marks2,
	}, store2, recovery.Options{Workers: 2}); err != nil {
		return e.result(outs, 0), e.vio(fmt.Errorf("recovery failed: %w", err))
	}

	// Resolve refused commit outcomes by marker presence.
	var history []check.Txn
	rtx := db2.Begin(core.WithIsolation(core.SnapshotIsolation))
	var maxEnd uint64
	for _, o := range outs {
		_, durable, err := rtx.Lookup(marks2, 0, o.marker, nil)
		if err != nil {
			_ = rtx.Abort()
			return e.result(outs, 0), err
		}
		if o.definite && !durable && e.fault != FaultChop {
			_ = rtx.Abort()
			return e.result(outs, 0), e.vio(fmt.Errorf(
				"acknowledged txn@%d (marker %#x) lost by recovery", o.ft.EndTS, o.marker))
		}
		if durable {
			history = append(history, o.ft)
			if o.ft.EndTS > maxEnd {
				maxEnd = o.ft.EndTS
			}
		}
	}
	if err := rtx.Commit(); err != nil {
		return e.result(outs, 0), err
	}

	final, err := e.readBack(db2, bank2, maxEnd+1)
	if err != nil {
		return e.result(outs, 0), err
	}
	history = append(history, final)
	if err := e.validate(bank2, history); err != nil {
		return e.result(outs, 0), e.vio(err)
	}
	if err := store2.Close(); err != nil {
		return e.result(outs, 0), err
	}
	if err := os.RemoveAll(dir); err != nil {
		return e.result(outs, 0), err
	}
	res := e.result(outs, HistoryHash(history))
	res.Commits = len(history) - 1 // durable commits only
	return res, nil
}

// HistoryHash fingerprints a committed history: FNV-64a over every
// footprint field in end-timestamp order. Two runs of the same
// single-worker episode produce identical hashes.
func HistoryHash(txns []check.Txn) uint64 {
	ordered := make([]check.Txn, len(txns))
	copy(ordered, txns)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].EndTS < ordered[j].EndTS })
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		_, _ = h.Write([]byte(s))
	}
	for i := range ordered {
		t := &ordered[i]
		u64(t.EndTS)
		u64(uint64(len(t.Reads)))
		for _, r := range t.Reads {
			str(r.Table)
			u64(r.Key)
			u64(r.Value)
			if r.Found {
				u64(1)
			} else {
				u64(0)
			}
		}
		u64(uint64(len(t.Writes)))
		for _, w := range t.Writes {
			str(w.Table)
			u64(uint64(w.Op))
			u64(w.Key)
			u64(w.Value)
		}
		u64(uint64(len(t.RangeReads)))
		for _, rr := range t.RangeReads {
			str(rr.Table)
			str(rr.Index)
			u64(rr.Lo)
			u64(rr.Hi)
			u64(uint64(len(rr.Keys)))
			for _, k := range rr.Keys {
				u64(k)
			}
		}
	}
	return h.Sum64()
}
