package mv

import (
	"errors"

	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrDegraded is returned by mutation entry points after a latched log
// failure flipped the engine into degraded read-only mode. It aliases
// wal.ErrDegraded so errors.Is matches across packages.
var ErrDegraded = wal.ErrDegraded

var (
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("mv: transaction already finished")
	// ErrWriteConflict is a write-write conflict: the first-writer-wins rule
	// (Section 2.6) forces the second writer to abort.
	ErrWriteConflict = errors.New("mv: write-write conflict")
	// ErrValidation is returned at commit when an optimistic transaction
	// fails read validation or phantom detection (Section 3.2).
	ErrValidation = errors.New("mv: validation failed")
	// ErrReadLockFailed is returned when a read lock cannot be acquired:
	// the counter is saturated, NoMoreReadLocks is set, or the write-locking
	// transaction no longer accepts wait-for dependencies (Section 4.2.1).
	ErrReadLockFailed = errors.New("mv: read lock acquisition failed")
	// ErrPhantomRisk is returned when a serializable pessimistic transaction
	// cannot impose a phantom-preventing wait-for dependency (the inserting
	// transaction has NoMoreWaitFors set or is already committing).
	ErrPhantomRisk = errors.New("mv: cannot prevent potential phantom")
	// ErrWaitForRefused is returned when a wait-for dependency cannot be
	// installed because the target refuses new dependencies.
	ErrWaitForRefused = errors.New("mv: wait-for dependency refused")
	// ErrAborted mirrors txn.ErrAborted: the transaction was told to abort
	// by a failed commit dependency or the deadlock detector.
	ErrAborted = errors.New("mv: transaction aborted")
	// ErrReadOnlyTx is returned when a mutation is attempted on a read-only
	// snapshot transaction (BeginReadOnly).
	ErrReadOnlyTx = errors.New("mv: read-only transaction cannot write")
	// ErrDuplicateKey is returned by Insert when another version of the same
	// primary key is, or may yet become, the latest: the key visibly exists,
	// or a concurrent transaction is inserting it (first writer wins). The
	// insert has doomed the transaction — it must abort. It aliases
	// storage.ErrDuplicateKey, which the 1V engine returns too.
	ErrDuplicateKey = storage.ErrDuplicateKey
	// ErrPayloadTooLarge is returned by Insert and Update for a payload above
	// storage.MaxPayload bytes, the most a version's length word holds. It
	// aliases storage.ErrPayloadTooLarge, which the 1V engine returns too.
	ErrPayloadTooLarge = storage.ErrPayloadTooLarge
)
