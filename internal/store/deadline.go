package store

// Query deadlines: AnswerWithin / AnswerBatchWithin bound how long a
// single answer or batch may hold the serving path. Every Dataset is
// cancelled cooperatively through its ContextAnswerer half (the context is
// checked before every probe), and is additionally bounded by a hard guard
// that abandons the worker goroutine at the deadline — the result is
// dropped and the HTTP layer answers 504 immediately, so an expired
// request is never left holding an envelope slot.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// DeadlineError reports a query or batch that outlived its budget. It
// wraps context.DeadlineExceeded (or context.Canceled), so errors.Is
// still sees the context cause.
type DeadlineError struct {
	Op  string // "answer" or "batch"
	ID  string // dataset id
	Err error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("store: %s %q: query budget exceeded (%v)", e.Op, e.ID, e.Err)
}

func (e *DeadlineError) Unwrap() error { return e.Err }

// ContextAnswerer is the cancellable half of Dataset: every dataset
// (Store, ShardedStore, and the cache wrapper) can be cancelled
// cooperatively mid-answer.
type ContextAnswerer interface {
	AnswerContext(ctx context.Context, q []byte) (bool, error)
	AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error)
}

// DegradedDataset is implemented by datasets whose scheme declares a
// cheaper fallback answerer (core.Scheme.PrepareFallback). Degraded
// answers must be exact on well-formed queries — the fallback trades
// serving cost, not correctness.
type DegradedDataset interface {
	CanDegrade() bool
	AnswerDegraded(q []byte) (bool, error)
	AnswerBatchDegraded(queries [][]byte, parallelism int) ([]bool, error)
}

// DegradableBatcher answers a batch under a deadline, switching to the
// scheme's declared fallback once the remaining budget runs low, and
// reports how many queries were answered degraded.
type DegradableBatcher interface {
	AnswerBatchDegradable(ctx context.Context, queries [][]byte, parallelism int) ([]bool, int, error)
}

// PrepareRetrier is the heal half of Dataset: drop a cached (possibly
// failed) prepared answerer and rebuild it — the hook a breaker's
// half-open probe uses to retry a transient Prepare failure.
type PrepareRetrier interface {
	RetryPrepare() error
}

// deadlineError classifies err: a context-caused failure under an armed
// ctx becomes a typed DeadlineError; anything else passes through.
func deadlineError(op, id string, ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return &DeadlineError{Op: op, ID: id, Err: cerr}
	}
	return err
}

type answerResult struct {
	ans      bool
	answers  []bool
	degraded int
	err      error
}

// guard runs fn on its own goroutine and abandons it at the deadline:
// the zombie finishes (and is cancelled cooperatively at its next
// context check) but its result is dropped.
func guard(ctx context.Context, op, id string, fn func() answerResult) answerResult {
	ch := make(chan answerResult, 1)
	go func() { ch <- fn() }()
	select {
	case res := <-ch:
		res.err = deadlineError(op, id, ctx, res.err)
		return res
	case <-ctx.Done():
		return answerResult{err: &DeadlineError{Op: op, ID: id, Err: ctx.Err()}}
	}
}

// AnswerWithin answers one query within ctx's deadline. Without a
// deadline (or cancellation) it is exactly ds.Answer.
func AnswerWithin(ctx context.Context, ds Dataset, q []byte) (bool, error) {
	if ctx == nil || ctx.Done() == nil {
		return ds.Answer(q)
	}
	if err := ctx.Err(); err != nil {
		return false, &DeadlineError{Op: "answer", ID: ds.DatasetID(), Err: err}
	}
	res := guard(ctx, "answer", ds.DatasetID(), func() answerResult {
		var r answerResult
		r.ans, r.err = ds.AnswerContext(ctx, q)
		return r
	})
	return res.ans, res.err
}

// AnswerBatchWithin answers a batch within ctx's deadline. Datasets
// with a declared fallback (DegradableBatcher) switch to it once the
// remaining budget runs low; degraded reports how many queries took the
// fallback. Without a deadline it is exactly ds.AnswerBatch.
func AnswerBatchWithin(ctx context.Context, ds Dataset, queries [][]byte, parallelism int) (answers []bool, degraded int, err error) {
	if ctx == nil || ctx.Done() == nil {
		answers, err = ds.AnswerBatch(queries, parallelism)
		return answers, 0, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, 0, &DeadlineError{Op: "batch", ID: ds.DatasetID(), Err: cerr}
	}
	res := guard(ctx, "batch", ds.DatasetID(), func() answerResult {
		var r answerResult
		if d, ok := ds.(DegradableBatcher); ok {
			r.answers, r.degraded, r.err = d.AnswerBatchDegradable(ctx, queries, parallelism)
		} else {
			r.answers, r.err = ds.AnswerBatchContext(ctx, queries, parallelism)
		}
		return r
	})
	return res.answers, res.degraded, res.err
}

// degradeThreshold is the fraction of the remaining budget at which a
// degradable batch switches from the exact path to the fallback.
const degradeThresholdDiv = 4

// budgetLow reports whether less than 1/degradeThresholdDiv of the
// budget measured from start remains before deadline.
func budgetLow(start, deadline time.Time) bool {
	total := deadline.Sub(start)
	if total <= 0 {
		return true
	}
	return time.Until(deadline) < total/degradeThresholdDiv
}
