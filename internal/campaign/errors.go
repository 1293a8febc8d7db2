package campaign

import (
	"context"
	"errors"
	"fmt"

	"camouflage/internal/check"
	"camouflage/internal/ckpt"
	"camouflage/internal/core"
)

// Class is the retry classification of a job failure. The campaign
// runner never retries Fatal failures: an invariant violation or a bad
// configuration reproduces bit-for-bit from its seed, so a retry only
// burns the budget and then fails identically. Transient failures —
// deadline expiry on an overloaded host, injected environmental faults —
// are retried with exponential backoff.
type Class int

const (
	// ClassTransient failures are retried with backoff.
	ClassTransient Class = iota
	// ClassFatal failures are recorded and never retried.
	ClassFatal
	// ClassCanceled failures come from context cancellation (campaign
	// drain); the job is neither completed nor failed and is re-queued by
	// a later -resume.
	ClassCanceled
)

// String names the class for journal records and summaries.
func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassFatal:
		return "fatal"
	case ClassCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// classified wraps an error with an explicit classification.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Transient marks err as retryable regardless of its default
// classification. Returns nil for a nil err.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ClassTransient}
}

// Fatal marks err as never-retryable. Returns nil for a nil err.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ClassFatal}
}

// Classify maps an error to its retry class:
//
//   - context cancellation / deadline (a drained campaign) → ClassCanceled
//   - an explicit Transient/Fatal marker → its class
//   - a check.Violation (runtime invariant broke; deterministic from the
//     seed, retrying is useless and masks a real bug) → ClassFatal
//   - ckpt.ErrCorrupt (a checkpoint that fails validation decodes the
//     same way on every retry; the caller should have fallen back to a
//     clean start instead of surfacing it) → ClassFatal
//   - core.ErrDeadline (host too slow, not a property of the config) →
//     ClassTransient
//   - anything else → ClassTransient, on the production-queue principle
//     that an unknown failure is worth a bounded number of retries before
//     it is declared dead.
func Classify(err error) Class {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var cl *classified
	if errors.As(err, &cl) {
		return cl.class
	}
	var v *check.Violation
	if errors.As(err, &v) {
		return ClassFatal
	}
	if errors.Is(err, ckpt.ErrCorrupt) {
		return ClassFatal
	}
	if errors.Is(err, core.ErrDeadline) {
		return ClassTransient
	}
	return ClassTransient
}
