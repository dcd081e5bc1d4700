package core

// Concurrent batch answering. The paper's asymmetry — preprocess once in
// PTIME, answer each query in NC — is exactly the shape that serves many
// clients from one preprocessed store: Π(D) is an immutable byte string, so
// any number of goroutines may answer against it at once. AnswerBatch is
// the worker-pool entry point for that mode.
//
// # The scheme concurrency contract
//
// Every Scheme (and FuncScheme) in this repository obeys, and every new
// scheme must obey:
//
//  1. Preprocess is called once per database, before any Answer. It needs
//     no internal synchronization but must not retain and later mutate the
//     returned preprocessed string.
//  2. Answer must be safe to call from any number of goroutines
//     concurrently with the same pd. In practice that means Answer treats
//     pd and q as read-only and keeps per-call state on the stack; schemes
//     that memoize shared state across calls (e.g. the compiled-tableau
//     cache of the Theorem 5 chain) must guard it with a mutex.
//  3. Answer must not mutate pd or q, even transiently: a concurrent
//     reader would observe the intermediate state.
//
// The contract is enforced by the schemes package's concurrency stress
// test, which runs every registered scheme's Answer from many goroutines
// under the race detector.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// AnswerBatch answers queries concurrently against one preprocessed store
// and returns the verdicts in query order. parallelism bounds the worker
// goroutines; values <= 0 select runtime.GOMAXPROCS(0). A parallelism of 1
// degenerates to the plain sequential loop.
//
// The first error (by lowest query index) aborts the batch: remaining
// workers drain quickly and the partial results are discarded. On success
// results[i] is Answer(pd, queries[i]) for every i.
func (s *Scheme) AnswerBatch(pd []byte, queries [][]byte, parallelism int) ([]bool, error) {
	return AnswerBatchPreparedContext(context.Background(), s.SchemeName, AnswererFunc(func(q []byte) (bool, error) {
		return s.Answer(pd, q)
	}), queries, parallelism)
}

// AnswerBatchPreparedContext is AnswerBatch over a prepared Answerer, with
// cooperative cancellation: the same worker pool, error policy, and query
// ordering, but every probe rides the decoded in-memory form instead of
// re-reading pd, and ctx is consulted before every probe, so an expired
// deadline abandons the rest of the batch promptly instead of paying every
// remaining query. The batch fails with the usual error shape at the
// lowest unanswered index, wrapping ctx.Err(). A context that can never be
// cancelled costs no per-probe check. label names the scheme in error
// messages, keeping them identical to the raw batch path's.
func AnswerBatchPreparedContext(ctx context.Context, label string, a Answerer, queries [][]byte, parallelism int) ([]bool, error) {
	cancellable := ctx != nil && ctx.Done() != nil
	results := make([]bool, len(queries))
	i, err := ForEach(len(queries), parallelism, func(i int) error {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		got, err := a.Answer(queries[i])
		results[i] = got
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("scheme %s: batch query %d: %w", label, i, err)
	}
	return results, nil
}

// ForEach runs fn(i) for every i in [0, n) on a bounded worker pool and
// reports the lowest failing index with its error (failedIdx is -1 on
// success). parallelism bounds the workers; values <= 0 select
// runtime.GOMAXPROCS(0), and a pool of one runs the plain sequential loop
// on the calling goroutine.
//
// A failure stops workers from claiming further indices, but the ones
// already claimed run to completion. Indices are claimed in increasing
// order, so every index below a failure has run when the pool drains, and
// the reported failure is the lowest failing index overall — the same one
// the sequential loop would stop at, whatever the interleaving.
func ForEach(n, parallelism int, fn func(i int) error) (failedIdx int, err error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// ApplyBatch is AnswerBatch for function schemes: it computes Apply for
// every query concurrently and returns the outputs in query order, under
// the same concurrency contract and error policy.
func (s *FuncScheme) ApplyBatch(pd []byte, queries [][]byte, parallelism int) ([][]byte, error) {
	results := make([][]byte, len(queries))
	i, err := ForEach(len(queries), parallelism, func(i int) (err error) {
		results[i], err = s.Apply(pd, queries[i])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("func scheme %s: batch query %d: %w", s.SchemeName, i, err)
	}
	return results, nil
}
