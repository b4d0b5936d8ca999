package mv

// White-box tests of the visibility case analyses (Tables 1 and 2): craft
// version words and writer-transaction states directly and check the
// outcome, including the speculative cases that return commit dependencies.

import (
	"testing"

	"repro/internal/field"
	"repro/internal/storage"
	"repro/internal/txn"
)

func visEngine(t *testing.T) (*Engine, *Tx) {
	t.Helper()
	e := NewEngine(Config{DeadlockInterval: -1})
	t.Cleanup(func() { e.Close() })
	e.Oracle().AdvanceTo(100) // make room for synthetic timestamps below 100
	reader := e.Begin(Optimistic, SnapshotIsolation)
	return e, reader
}

// registerTxn creates a synthetic transaction in the given state.
func registerTxn(e *Engine, id uint64, state txn.State, end uint64) *txn.Txn {
	tb := txn.New(id, id)
	if end != 0 {
		tb.SetEnd(end)
	}
	tb.SetState(state)
	e.TxnTable().Register(tb)
	return tb
}

func mkVersion(begin, end uint64) *storage.Version {
	return storage.NewVersion([]byte{1}, 1, begin, end)
}

func TestVisibilityPlainTimestamps(t *testing.T) {
	e, r := visEngine(t)
	v := mkVersion(field.FromTS(10), field.FromTS(20))
	cases := []struct {
		rt   uint64
		want bool
	}{
		{5, false},  // before begin
		{10, true},  // at begin
		{15, true},  // inside
		{19, true},  // last instant
		{20, false}, // at end (valid time is [begin, end))
		{25, false}, // after end
	}
	for _, c := range cases {
		out := e.checkVisibility(r.T, v, c.rt)
		if out.visible != c.want || out.dep != nil {
			t.Fatalf("rt=%d: visible=%v dep=%v, want %v/nil", c.rt, out.visible, out.dep, c.want)
		}
	}
}

func TestVisibilityLatestVersion(t *testing.T) {
	e, r := visEngine(t)
	v := mkVersion(field.FromTS(10), field.FromTS(field.Infinity))
	if out := e.checkVisibility(r.T, v, 50); !out.visible {
		t.Fatal("latest version invisible")
	}
	// Read-locked latest version (lock word, no writer): still visible.
	v.SetEnd(field.Lock(field.NoWriter, 3, false))
	if out := e.checkVisibility(r.T, v, 50); !out.visible {
		t.Fatal("read-locked latest version invisible")
	}
}

// Table 1, Begin = TB in Active state: visible only to TB itself and only
// for its latest version.
func TestVisibilityBeginActive(t *testing.T) {
	e, r := visEngine(t)
	tb := registerTxn(e, 7, txn.Active, 0)
	v := mkVersion(field.FromTxID(tb.ID()), field.FromTS(field.Infinity))
	if out := e.checkVisibility(r.T, v, 50); out.visible {
		t.Fatal("other transaction's uncommitted version visible")
	}
	// The creator sees its own latest version...
	creator := &Tx{e: e, T: tb, scheme: Optimistic, iso: ReadCommitted}
	if out := e.checkVisibility(creator.T, v, 50); !out.visible {
		t.Fatal("creator cannot see own version")
	}
	// ...but not once it has deleted it (End holds its own ID).
	v.SetEnd(field.Lock(tb.ID(), 0, false))
	if out := e.checkVisibility(creator.T, v, 50); out.visible {
		t.Fatal("creator sees own deleted version")
	}
}

// Table 1, Begin = TB in Preparing state: use TB's end timestamp as the
// tentative begin time; a true outcome is a speculative read with a commit
// dependency on TB.
func TestVisibilityBeginPreparing(t *testing.T) {
	e, r := visEngine(t)
	tb := registerTxn(e, 8, txn.Preparing, 40)
	v := mkVersion(field.FromTxID(tb.ID()), field.FromTS(field.Infinity))
	// rt below TB's end: test false, no dependency.
	if out := e.checkVisibility(r.T, v, 30); out.visible || out.dep != nil {
		t.Fatalf("rt=30: got %+v, want invisible/no dep", out)
	}
	// rt above TB's end: speculative read, dependency on TB.
	out := e.checkVisibility(r.T, v, 50)
	if !out.visible || out.dep != tb {
		t.Fatalf("rt=50: got visible=%v dep=%v, want speculative read on TB", out.visible, out.dep)
	}
}

// Table 1, Begin = TB Committed (begin not yet finalized): use TB's end, no
// dependency.
func TestVisibilityBeginCommitted(t *testing.T) {
	e, r := visEngine(t)
	tb := registerTxn(e, 9, txn.Committed, 40)
	v := mkVersion(field.FromTxID(tb.ID()), field.FromTS(field.Infinity))
	if out := e.checkVisibility(r.T, v, 50); !out.visible || out.dep != nil {
		t.Fatalf("got %+v, want visible with no dep", out)
	}
	if out := e.checkVisibility(r.T, v, 30); out.visible {
		t.Fatal("visible before committed begin")
	}
}

// Table 1, Begin = TB Aborted: garbage, invisible.
func TestVisibilityBeginAborted(t *testing.T) {
	e, r := visEngine(t)
	tb := registerTxn(e, 10, txn.Aborted, 0)
	v := mkVersion(field.FromTxID(tb.ID()), field.FromTS(field.Infinity))
	if out := e.checkVisibility(r.T, v, 50); out.visible {
		t.Fatal("aborted creator's version visible")
	}
}

// Table 2, End = TE Active: the old version remains visible.
func TestVisibilityEndActive(t *testing.T) {
	e, r := visEngine(t)
	te := registerTxn(e, 11, txn.Active, 0)
	v := mkVersion(field.FromTS(10), field.Lock(te.ID(), 0, false))
	if out := e.checkVisibility(r.T, v, 50); !out.visible || out.dep != nil {
		t.Fatalf("got %+v, want visible (uncommitted update)", out)
	}
}

// Table 2, End = TE Preparing: TS > RT means visible regardless of TE's
// fate; TS < RT means speculatively ignore with a dependency on TE.
func TestVisibilityEndPreparing(t *testing.T) {
	e, r := visEngine(t)
	te := registerTxn(e, 12, txn.Preparing, 40)
	v := mkVersion(field.FromTS(10), field.Lock(te.ID(), 0, false))
	if out := e.checkVisibility(r.T, v, 30); !out.visible || out.dep != nil {
		t.Fatalf("rt=30 (TS>RT): got %+v, want visible/no dep", out)
	}
	out := e.checkVisibility(r.T, v, 50)
	if out.visible || out.dep != te {
		t.Fatalf("rt=50 (TS<RT): got visible=%v dep=%v, want speculative ignore on TE", out.visible, out.dep)
	}
}

// Table 2, End = TE Committed (end not yet finalized): use TE's end.
func TestVisibilityEndCommitted(t *testing.T) {
	e, r := visEngine(t)
	te := registerTxn(e, 13, txn.Committed, 40)
	v := mkVersion(field.FromTS(10), field.Lock(te.ID(), 0, false))
	if out := e.checkVisibility(r.T, v, 30); !out.visible {
		t.Fatal("rt=30: invisible below TE's end")
	}
	if out := e.checkVisibility(r.T, v, 50); out.visible {
		t.Fatal("rt=50: visible past TE's end")
	}
}

// Table 2, End = TE Aborted: visible — any post-abort overwriter gets an
// end timestamp after our read time.
func TestVisibilityEndAborted(t *testing.T) {
	e, r := visEngine(t)
	te := registerTxn(e, 14, txn.Aborted, 0)
	v := mkVersion(field.FromTS(10), field.Lock(te.ID(), 0, false))
	if out := e.checkVisibility(r.T, v, 50); !out.visible {
		t.Fatal("version with aborted updater invisible")
	}
}

// End = our own ID: the old version of our own update is invisible to us.
func TestVisibilityEndSelf(t *testing.T) {
	e, r := visEngine(t)
	v := mkVersion(field.FromTS(10), field.Lock(r.T.ID(), 0, false))
	if out := e.checkVisibility(r.T, v, 50); out.visible {
		t.Fatal("own-updated old version visible to updater")
	}
}

// isVisible registers the dependency that checkVisibility reports, and
// resolves flipped outcomes when the target has already aborted.
func TestIsVisibleDependencyRegistration(t *testing.T) {
	e, r := visEngine(t)
	te := registerTxn(e, 15, txn.Preparing, 40)
	v := mkVersion(field.FromTS(10), field.Lock(te.ID(), 0, false))
	if r.isVisible(v, 50) {
		t.Fatal("got visible, want speculative ignore")
	}
	if r.T.CommitDepCount() != 1 {
		t.Fatalf("CommitDepCount = %d, want 1", r.T.CommitDepCount())
	}
	// TE commits: the dependency resolves and the reader can commit.
	te.SetState(txn.Committed)
	te.ResolveDependents(true, e.TxnTable())
	if r.T.CommitDepCount() != 0 {
		t.Fatal("dependency not resolved")
	}
}
