package store

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pitract/internal/cache"
	"pitract/internal/core"
)

// doneDataset closes done when its batch call returns: the hook a test
// uses to wait for a worker the deadline guard has already abandoned.
type doneDataset struct {
	Dataset
	done chan struct{}
}

func (d *doneDataset) AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error) {
	defer close(d.done)
	return d.Dataset.AnswerBatchContext(ctx, queries, parallelism)
}

// TestCachedBatchHonoursQueryBudget pins cooperative cancellation through
// the cache front: a batch abandoned at its deadline must stop probing the
// misses, not answer every one of them on a worker nobody waits for.
func TestCachedBatchHonoursQueryBudget(t *testing.T) {
	var probes atomic.Int64
	sch := &core.Scheme{
		SchemeName: "test/slow-probe",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Answer: func(pd, q []byte) (bool, error) {
			probes.Add(1)
			time.Sleep(2 * time.Millisecond)
			return true, nil
		},
	}
	st := &Store{ID: "slow", Scheme: sch, Prep: []byte{1}}
	ds := &doneDataset{Dataset: NewCachedDataset(st, cache.New(1<<20)), done: make(chan struct{})}
	queries := make([][]byte, 64)
	for i := range queries {
		queries[i] = []byte{byte(i)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := AnswerBatchWithin(ctx, ds, queries, 1)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("batch error %v, want a *DeadlineError", err)
	}
	select {
	case <-ds.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned batch worker did not finish within 10s")
	}
	if n := probes.Load(); n > 32 {
		t.Fatalf("abandoned batch made %d of 64 probes, want at most 32", n)
	}
}
