package store

import (
	"context"
	"fmt"

	"pitract/internal/cache"
	"pitract/internal/obs"
)

// Cache-lookup stage histograms, split by outcome: a hit is served (or
// coalesced) from the version-keyed cache, a miss ran the underlying
// answer path and filled the cache.
var (
	obsCacheHit  = obs.Stage(obs.StageCacheHit)
	obsCacheMiss = obs.Stage(obs.StageCacheMiss)
)

// cachedDataset fronts one Dataset with a verdict cache. It implements
// Dataset by delegation, intercepting only the answer paths.
type cachedDataset struct {
	Dataset
	c *cache.Cache
}

// NewCachedDataset wraps ds so Answer and AnswerBatch consult (and fill) c
// before touching the underlying answering path. The cache key is
// ⟨ds.DatasetID(), ds.Version(), query⟩ with the version read at admission
// — the same read the HTTP layer reports — so a hit can only ever serve a
// verdict computed against that version or a newer one, exactly the
// staleness contract the uncached path already documents, and a committed
// delta invalidates every prior entry by moving traffic to new keys.
//
// The wrapper is an answer-path view: registration and maintenance keep
// going through the registry (or the underlying dataset), which is also
// why it deliberately does not implement DeltaDataset. Wrapping costs one
// allocation; callers serving many requests may wrap once and keep it.
func NewCachedDataset(ds Dataset, c *cache.Cache) Dataset {
	if c == nil {
		return ds
	}
	return &cachedDataset{Dataset: ds, c: c}
}

// Answer implements Dataset: a cache hit returns immediately; a cold key
// runs the underlying answer once, with concurrent callers of the same key
// coalesced onto that one run (singleflight).
func (cd *cachedDataset) Answer(q []byte) (bool, error) {
	return cd.AnswerContext(context.Background(), q)
}

// AnswerContext implements ContextAnswerer: the cache is still
// consulted (hits beat deadlines for free); a cold key runs the
// underlying context-aware path so an expired budget aborts the probe.
func (cd *cachedDataset) AnswerContext(ctx context.Context, q []byte) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return cd.do(q, func() (bool, error) { return cd.Dataset.AnswerContext(ctx, q) })
}

// do serves q through the cache, running answer on a miss, and records the
// lookup under the cache_hit or cache_miss stage.
func (cd *cachedDataset) do(q []byte, answer func() (bool, error)) (bool, error) {
	version := cd.Dataset.Version()
	start := obs.Start()
	if start.IsZero() { // metrics disabled: skip the outcome bookkeeping
		return cd.c.Do(cd.Dataset.DatasetID(), version, q, answer)
	}
	ran := false
	v, err := cd.c.Do(cd.Dataset.DatasetID(), version, q, func() (bool, error) {
		ran = true
		return answer()
	})
	if ran {
		obsCacheMiss.Since(start)
	} else {
		// Hits include callers coalesced onto someone else's in-flight run:
		// from the caller's side both are "served from the cache layer".
		obsCacheHit.Since(start)
	}
	return v, err
}

// AnswerBatch implements Dataset: cached verdicts are filled in directly
// and only the misses ride the underlying batch worker pool (then
// populate the cache). The whole batch is keyed at one admission version.
// Misses are answered as one sub-batch rather than coalesced per key.
func (cd *cachedDataset) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	return cd.AnswerBatchContext(context.Background(), queries, parallelism)
}

// AnswerBatchContext implements ContextAnswerer: the misses (and either
// whole-batch re-run) ride the underlying context-aware batch, so a batch
// abandoned at its deadline stops probing instead of answering every miss.
func (cd *cachedDataset) AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id := cd.Dataset.DatasetID()
	version := cd.Dataset.Version()
	results := make([]bool, len(queries))
	var missIdx []int
	var missQueries [][]byte
	for i, q := range queries {
		if v, ok := cd.c.Lookup(id, version, q); ok {
			results[i] = v
		} else {
			missIdx = append(missIdx, i)
			missQueries = append(missQueries, q)
		}
	}
	var answers []bool
	if len(missIdx) > 0 {
		var err error
		answers, err = cd.Dataset.AnswerBatchContext(ctx, missQueries, parallelism)
		if err != nil {
			// The sub-batch error names the failing query's index *within
			// the misses*, which would be wrong (and cache-state-dependent)
			// for the caller. Errors abort the whole batch anyway, so
			// re-run the full original batch: same deterministic failure,
			// and the error carries the caller's own lowest failing index —
			// identical bytes to what the uncached path reports.
			return cd.Dataset.AnswerBatchContext(ctx, queries, parallelism)
		}
	}
	if cd.Dataset.Version() != version {
		// A delta committed since admission: mixing entries keyed at the
		// admission version (whose verdicts may span the commit — a
		// single-query writer admitted at v may legally cache a verdict
		// computed at v+1) with the sub-batch's newer answers could
		// return a combination no single Π produces. Versions are
		// monotonic, so an unchanged version here certifies the whole
		// batch consistent at the admission version; on a change, fall
		// back to one uncached batch — which answers against a single Π,
		// preserving the batch consistency contract the uncached path
		// documents. This guards the all-hit path too, not just misses.
		return cd.Dataset.AnswerBatchContext(ctx, queries, parallelism)
	}
	for k, i := range missIdx {
		results[i] = answers[k]
		cd.c.Put(id, version, queries[i], answers[k])
	}
	return results, nil
}

// CanDegrade implements DegradedDataset by delegation.
func (cd *cachedDataset) CanDegrade() bool {
	if dd, ok := cd.Dataset.(DegradedDataset); ok {
		return dd.CanDegrade()
	}
	return false
}

// AnswerDegraded implements DegradedDataset by delegation, bypassing
// the cache entirely: degraded-mode traffic must not populate (or be
// served from) the exact path's cache — verdicts are exact either way,
// but keeping the flows separate keeps the cache's hit accounting an
// exact-path signal.
func (cd *cachedDataset) AnswerDegraded(q []byte) (bool, error) {
	dd, ok := cd.Dataset.(DegradedDataset)
	if !ok {
		return false, fmt.Errorf("store: dataset %q declares no degraded fallback", cd.Dataset.DatasetID())
	}
	return dd.AnswerDegraded(q)
}

// AnswerBatchDegraded implements DegradedDataset by delegation,
// bypassing the cache (see AnswerDegraded).
func (cd *cachedDataset) AnswerBatchDegraded(queries [][]byte, parallelism int) ([]bool, error) {
	dd, ok := cd.Dataset.(DegradedDataset)
	if !ok {
		return nil, fmt.Errorf("store: dataset %q declares no degraded fallback", cd.Dataset.DatasetID())
	}
	return dd.AnswerBatchDegraded(queries, parallelism)
}
