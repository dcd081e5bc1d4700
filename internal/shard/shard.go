// Package shard partitions one dataset across several preprocessed stores
// and routes queries to them — the horizontal-scaling face of the paper's
// Π-tractability contract. Preprocess(D) is PTIME in |D|; cutting D into n
// parts preprocesses n datasets of size |D|/n (concurrently, and with
// sub-linear artifacts like the reachability closure matrix, into
// strictly smaller total output), while answering stays inside the NC
// budget: a query is either routed to the single shard that owns its
// answer, or fanned out to every shard and the per-shard verdicts merged
// by a scheme-specific reducer.
//
// The moving parts:
//
//   - Partitioner (hash, range) freezes an Assignment of element keys to
//     shards.
//   - Sharding is the per-scheme hook bundle: Keys extracts partition keys,
//     Split re-encodes the dataset as n valid sub-datasets and builds the
//     cross-shard summary (e.g. the reachability portal overlay) in one
//     pass, Route finds a query's owning shard, Fanout rewrites a query per
//     shard, and Merge reduces fan-out verdicts (default: OR).
//   - ShardedStore holds the n per-shard stores plus the assignment and
//     summary, and answers exactly like a plain store.Store — differential
//     tests pin sharded answers byte-identical to unsharded ones. One
//     per-query function routes or fans out; a single query runs it and
//     merges, and a batch runs it as one pass over the queries on the core
//     worker pool, then merges the fanned-out ones in a second pass.
//   - Manifest + RegisterSharded persist the whole thing as one catalog
//     entry backed by n snapshot files with per-shard SHA-256 integrity.
//
// Layering: shard sits on top of internal/store (it composes plain stores
// and reuses the snapshot format) and below internal/server (which routes
// /v1/query through store.Dataset, the interface both implement).
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"pitract/internal/core"
	"pitract/internal/obs"
	"pitract/internal/store"
)

// Stage histograms for the sharded answer and maintenance paths, resolved
// once at init. Fan-out and merge are timed separately: fan-out cost scales
// with shard count, merge cost with the scheme's reducer (reachability
// probes O(|portals|) local queries per merge).
var (
	obsShardFanout = obs.Stage(obs.StageShardFanout)
	obsShardMerge  = obs.Stage(obs.StageShardMerge)
	obsPreprocess  = obs.Stage(obs.StagePreprocess)
	obsWarm        = obs.Stage(obs.StageWarm)
	obsPatchApply  = obs.Stage(obs.StagePatchApply)
)

// Probe answers a follow-up local query against one shard during Merge —
// e.g. reachability's "does u reach portal p inside its shard". localQuery
// is only valid for the duration of the call: callers may reuse its buffer
// for the next probe.
type Probe func(shard int, localQuery []byte) (bool, error)

// Sharding adapts one scheme to partitioned stores. Keys/Split run once at
// preprocessing time; Route/Fanout/Merge sit on the answer path and must
// stay within the scheme's NC answering budget (they do constant or polylog
// work over the assignment and summary, never touch raw data).
type Sharding struct {
	// Keys extracts every element's partition key, in element order, from
	// an encoded dataset.
	Keys func(data []byte) ([]int64, error)
	// Split re-encodes data as asn.Shards() valid sub-datasets, element i
	// going to shard asn.Shard(keys[i]), and builds the cross-shard summary
	// artifact (e.g. the reachability portal-overlay closure; nil when the
	// scheme needs none) in the same pass, so state both halves share (the
	// decoded graph, its induced subgraphs) is computed once per
	// registration. Every part must itself be a dataset the scheme's
	// Preprocess accepts; the summary is persisted in the manifest.
	Split func(data []byte, asn Assignment) (parts [][]byte, summary []byte, err error)
	// Prepare decodes a summary once, wherever the summary is set (Build,
	// reload, a delta commit); the result is what Fanout and Merge receive,
	// so per-query work never re-parses the O(|D|)-sized summary (that
	// would smuggle linear work into the NC answering budget). Nil passes
	// the raw summary bytes through.
	Prepare func(summary []byte) (interface{}, error)
	// Route returns the single shard that alone owns q's answer, or -1 to
	// fan out to every shard.
	Route func(q []byte, asn Assignment) (int, error)
	// Fanout rewrites q for one shard during fan-out; keep=false means the
	// shard is known to contribute a false verdict without being asked.
	// summary is Prepare's output (or the raw bytes without Prepare). Nil
	// sends q unchanged to every shard.
	Fanout func(q []byte, shardIdx int, asn Assignment, summary interface{}) (local []byte, keep bool, err error)
	// Merge reduces the fan-out verdicts (verdicts[i] is false for shards
	// Fanout dropped); probe allows follow-up local queries. Nil means OR.
	Merge func(q []byte, verdicts []bool, asn Assignment, summary interface{}, probe Probe) (bool, error)

	// SplitDelta routes one dataset delta to the shards it lands on: the
	// result maps a shard index to the local deltas (in application order)
	// for that shard's store, each in the scheme's own delta encoding —
	// e.g. a key-insertion batch splits by partitioner into one per-shard
	// batch, and a same-shard edge insert becomes one relabelled local
	// edge. An empty map is valid (a purely cross-shard delta touches only
	// the summary). summary is Prepare's output *as of the start of the
	// delta batch* — SplitDelta must only depend on summary state deltas
	// cannot change (the vertex universe and relabelling, not derived
	// connectivity). Nil SplitDelta means the sharded form has no delta
	// routing: PATCH/ApplyDeltas is refused with a clean error and the
	// dataset stays exactly as it was.
	SplitDelta func(delta []byte, asn Assignment, summary interface{}) (map[int][][]byte, error)
	// UpdateSummary maintains the cross-shard summary's *structure* after
	// one delta's local deltas have been applied (e.g. extends the
	// reachability cross-edge list and portal set). Derived state that is
	// expensive to recompute belongs in FinishSummary, which runs once per
	// batch. probe answers local queries against the updated (pending, not
	// yet committed) per-shard stores. Nil means the summary never changes
	// under deltas (schemes without summaries). The []byte-in/[]byte-out
	// shape keeps the hook scheme-agnostic at the cost of a summary
	// decode/encode per structure-changing delta; schemes should
	// short-circuit deltas that provably leave the structure unchanged
	// (reachability returns the input summary for same-shard edges).
	UpdateSummary func(delta []byte, asn Assignment, summary []byte, probe Probe) ([]byte, error)
	// FinishSummary recomputes the summary's derived state once after the
	// whole delta batch (e.g. the reachability overlay closure, which
	// costs portal² probes — paying it per delta would waste k-1 of k
	// rebuilds). Nil when UpdateSummary leaves nothing deferred.
	FinishSummary func(asn Assignment, summary []byte, probe Probe) ([]byte, error)
}

// ShardedStore is one dataset served from n per-shard preprocessed stores
// behind a single catalog entry. It implements store.Dataset, so the HTTP
// server and the registry treat it exactly like a plain store; Answer and
// AnswerBatch route or fan out per query.
type ShardedStore struct {
	// ID is the dataset identifier the store was registered under.
	ID string
	// Scheme answers against each per-shard store.
	Scheme *core.Scheme
	// Sharding is the per-scheme routing/merging hook bundle.
	Sharding *Sharding
	// Asn is the frozen key→shard assignment.
	Asn Assignment
	// Summary is the cross-shard state from Sharding.Split (nil when the
	// scheme needs none).
	Summary []byte
	// Stores holds the per-shard preprocessed stores, indexed by shard.
	Stores []*store.Store
	// DataSum digests the raw (unsplit) data.
	DataSum store.DataChecksum
	// Loaded reports whether every shard was reloaded from snapshots.
	Loaded bool
	// Partitioner names the partitioner that planned Asn ("hash", "range");
	// persisted in the manifest so reloads only match like-partitioned
	// snapshots.
	Partitioner string

	// mu guards the mutable answer state — the per-shard preprocessed
	// strings, Summary, and version — against ApplyDeltas. Answer and
	// AnswerBatch hold the read lock for the whole call, so a query (even a
	// fan-out touching every shard plus the summary) always observes one
	// fully applied version, never shard i old and shard j new. The write
	// lock is held only for the commit swap — staging and snapshot I/O run
	// under maintMu — so queries never wait on maintenance work.
	mu sync.RWMutex
	// maintMu serializes maintainers; see store.Store.
	maintMu sync.Mutex
	// version counts the deltas applied since registration (restored from
	// the manifest on reload).
	version uint64
	// journal is the write-ahead commit state (guarded by maintMu).
	journal store.Journal

	// prepared is Sharding.Prepare(Summary), what Fanout and Merge
	// receive, and prepErr its failure, reported by every fan-out query.
	// Both are set wherever Summary is: Build, LoadShardedFS and the
	// ApplyDeltas commit (under mu, with Summary).
	prepared interface{}
	prepErr  error
}

// summaryView returns the prepared summary and its Prepare error. Callers
// hold ss.mu, or maintMu (only maintainers write it).
func (ss *ShardedStore) summaryView() (interface{}, error) { return ss.prepared, ss.prepErr }

// prepareSummary decodes a summary with Sharding.Prepare; without one the
// raw bytes are the answer paths' view.
func (sh *Sharding) prepareSummary(summary []byte) (interface{}, error) {
	if sh.Prepare == nil {
		return summary, nil
	}
	return sh.Prepare(summary)
}

// DatasetID implements store.Dataset.
func (ss *ShardedStore) DatasetID() string { return ss.ID }

// SchemeName implements store.Dataset.
func (ss *ShardedStore) SchemeName() string { return ss.Scheme.Name() }

// DataDigest implements store.Dataset.
func (ss *ShardedStore) DataDigest() store.DataChecksum { return ss.DataSum }

// PrepBytes implements store.Dataset: the summed per-shard artifacts plus
// the cross-shard summary.
func (ss *ShardedStore) PrepBytes() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	total := len(ss.Summary)
	for _, st := range ss.Stores {
		total += st.PrepBytes()
	}
	return total
}

// ShardCount implements store.Dataset.
func (ss *ShardedStore) ShardCount() int { return len(ss.Stores) }

// SnapshotBytes implements store.SnapshotSizer: the summed encoded sizes
// of the per-shard snapshots plus the cross-shard summary the manifest
// carries — what a generation checkpoint would write.
func (ss *ShardedStore) SnapshotBytes() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	total := len(ss.Summary)
	for _, st := range ss.Stores {
		total += st.SnapshotBytes()
	}
	return total
}

// WasLoaded implements store.Dataset.
func (ss *ShardedStore) WasLoaded() bool { return ss.Loaded }

// Version implements store.Dataset: the number of deltas applied since
// registration.
func (ss *ShardedStore) Version() uint64 {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.version
}

// probe answers one follow-up local query for Merge.
func (ss *ShardedStore) probe(shardIdx int, localQuery []byte) (bool, error) {
	if shardIdx < 0 || shardIdx >= len(ss.Stores) {
		return false, fmt.Errorf("shard: probe shard %d out of range [0,%d)", shardIdx, len(ss.Stores))
	}
	return ss.Stores[shardIdx].Answer(localQuery)
}

// Answer decides one query: routed queries hit their owning shard
// unchanged; everything else fans out and merges. The read lock is held
// for the whole call, so every shard probe and summary read within one
// query sees the same maintenance version.
func (ss *ShardedStore) Answer(q []byte) (bool, error) {
	return ss.AnswerContext(context.Background(), q)
}

// AnswerContext implements store.ContextAnswerer: Answer with the
// context threaded through the fan-out, checked before every per-shard
// probe, so an expired query budget stops paying shards it can no
// longer use.
func (ss *ShardedStore) AnswerContext(ctx context.Context, q []byte) (bool, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	fanStart := obs.Start()
	verdicts := make([]bool, len(ss.Stores))
	routed, ans, err := ss.fan(ctx, q, verdicts)
	if routed || err != nil {
		return ans, err
	}
	obsShardFanout.Since(fanStart)
	mergeStart := obs.Start()
	ans, err = ss.merge(q, verdicts, ss.probe)
	obsShardMerge.Since(mergeStart)
	return ans, err
}

// fan is the one per-query route and fan-out, shared by Answer and the
// batch's fan pass. A query Route assigns to one shard is answered there
// unchanged (routed=true, ans is the verdict). Any other query is rewritten
// by Fanout for every shard and probed through the member stores' prepared
// answerers, shard i's verdict landing in verdicts[i] (left false for
// shards Fanout drops) for merge to reduce. Callers hold ss.mu.
func (ss *ShardedStore) fan(ctx context.Context, q []byte, verdicts []bool) (routed, ans bool, err error) {
	owner, err := ss.Sharding.Route(q, ss.Asn)
	if err != nil {
		return false, false, err
	}
	if owner >= len(ss.Stores) {
		return false, false, fmt.Errorf("shard: route to shard %d out of range [0,%d)", owner, len(ss.Stores))
	}
	if owner >= 0 {
		ans, err = ss.Stores[owner].AnswerContext(ctx, q)
		return true, ans, err
	}
	sv, err := ss.summaryView()
	if err != nil {
		return false, false, err
	}
	for i, st := range ss.Stores {
		if err := ctx.Err(); err != nil {
			return false, false, err
		}
		local, keep := q, true
		if ss.Sharding.Fanout != nil {
			if local, keep, err = ss.Sharding.Fanout(q, i, ss.Asn, sv); err != nil {
				return false, false, err
			}
		}
		if !keep {
			continue
		}
		if verdicts[i], err = st.Answer(local); err != nil {
			return false, false, err
		}
	}
	return false, false, nil
}

// RetryPrepare implements store.PrepareRetrier: every member store
// drops and rebuilds its prepared answerer (the half-open probe's heal
// hook); the first failure is reported after all shards have retried.
func (ss *ShardedStore) RetryPrepare() error {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var firstErr error
	for _, st := range ss.Stores {
		if err := st.RetryPrepare(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Warm builds every member store's prepared answerer now, concurrently as
// Build does — a serial warm-up would add n decode latencies to the
// restart path.
func (ss *ShardedStore) Warm() {
	var wg sync.WaitGroup
	for _, st := range ss.Stores {
		wg.Add(1)
		go func(st *store.Store) {
			defer wg.Done()
			st.Warm()
		}(st)
	}
	wg.Wait()
}

// merge applies Sharding.Merge with the OR default; probe is ss.probe,
// taken once per answer call. Callers hold ss.mu.
func (ss *ShardedStore) merge(q []byte, verdicts []bool, probe Probe) (bool, error) {
	if ss.Sharding.Merge == nil {
		for _, v := range verdicts {
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	return ss.Sharding.Merge(q, verdicts, ss.Asn, ss.prepared, probe)
}

// AnswerBatch answers queries concurrently, in query order, through the
// same per-query route, fan-out and merge as Answer. The first failing
// query (lowest index) aborts the batch, matching core.Scheme.AnswerBatch
// semantics. The read lock is held across the whole batch, so all verdicts
// come from one maintenance version.
func (ss *ShardedStore) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	return ss.AnswerBatchContext(context.Background(), queries, parallelism)
}

// AnswerBatchContext implements store.ContextAnswerer: two passes over the
// queries on the core worker pool. The fan pass routes every query and
// answers it on its owner, or fans it out into its row of one flat verdict
// array; the merge pass reduces the fanned-out rows. The context is checked
// before every per-shard probe and every merge, so an expired query budget
// abandons the remaining work instead of paying every shard; context errors
// come back unwrapped.
func (ss *ShardedStore) AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(ss.Stores)
	results := make([]bool, len(queries))
	// fanned[i] marks a fan-out query; verdicts[i*n:(i+1)*n] is its row.
	fanned := make([]bool, len(queries))
	verdicts := make([]bool, len(queries)*n)
	// One observation per pass: with queries in flight on every worker,
	// the meaningful latency is the pass's wall time, not a per-query sum.
	fanStart := obs.Start()
	failed, err := core.ForEach(len(queries), parallelism, func(i int) error {
		routed, ans, err := ss.fan(ctx, queries[i], verdicts[i*n:(i+1)*n])
		results[i], fanned[i] = ans, !routed && err == nil
		return err
	})
	if slices.Contains(fanned, true) {
		obsShardFanout.Since(fanStart)
		// Merges below a fan failure still run, so the batch fails at the
		// lowest failing index across both passes — the query the
		// sequential loop would stop at.
		limit := len(queries)
		if err != nil {
			limit = failed
		}
		mergeStart := obs.Start()
		probe := ss.probe
		m, merr := core.ForEach(limit, parallelism, func(i int) error {
			if !fanned[i] {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			results[i], err = ss.merge(queries[i], verdicts[i*n:(i+1)*n], probe)
			return err
		})
		obsShardMerge.Since(mergeStart)
		if merr != nil {
			failed, err = m, merr
		}
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, err
		}
		return nil, fmt.Errorf("shard: batch query %d: %w", failed, err)
	}
	return results, nil
}

// ApplyDeltas implements store.DeltaDataset: it maintains the sharded
// dataset under a batch of deltas. Each delta is routed by the scheme's
// SplitDelta hook to the shards it lands on (local deltas applied through
// the scheme's incremental form, exactly as an unsharded store would), and
// the cross-shard summary is maintained by UpdateSummary (with derived
// state like the reachability overlay closure rebuilt once per batch by
// FinishSummary), probing the pending post-delta shard state. The whole
// batch is staged outside the served state — under the maintenance mutex,
// never the reader-blocking lock — and committed at once: per-shard
// strings, summary, and version swap together under the writer lock.
//
// With a persistent medium the staged batch commits through
// store.Journal.Commit, the protocol a plain store uses: the original
// (top-level) deltas are appended to the dataset's delta log before any
// served state changes (the commit point), and on the medium's checkpoint
// cadence the staged state is written as a fresh shard generation
// (saveGeneration) and the log truncated.
//
// ctx bounds the batch (checked before each delta and before the commit
// point): a budget that expires mid-batch aborts with nothing applied.
//
// Schemes whose sharded form has no delta routing (SplitDelta == nil)
// refuse cleanly; the HTTP layer surfaces that as a 409.
func (ss *ShardedStore) ApplyDeltas(ctx context.Context, inc *core.IncrementalScheme, deltas [][]byte, med *store.Medium) (uint64, error) {
	if ss.Sharding.SplitDelta == nil {
		return ss.Version(), fmt.Errorf("shard: scheme %s has no sharded delta routing; re-register unsharded to maintain it",
			ss.Scheme.Name())
	}
	if inc == nil || inc.ApplyDelta == nil {
		return ss.Version(), fmt.Errorf("shard: scheme %s has no incremental form", ss.Scheme.Name())
	}
	// An empty batch is a no-op: no log record, no generation rewrite.
	if len(deltas) == 0 {
		return ss.Version(), nil
	}
	ss.maintMu.Lock()
	defer ss.maintMu.Unlock()
	n := len(ss.Stores)
	pending := make([][]byte, n)
	for i, st := range ss.Stores {
		pending[i], _ = st.View()
	}
	// Summary is only written by maintainers (serialized on maintMu), so
	// reading it here without ss.mu is ordered with every past commit.
	summary := ss.Summary
	oldVersion := ss.Version()
	// probe answers local queries against the staged shard state, so
	// summary maintenance for delta k sees deltas 1..k already applied.
	probe := func(s int, q []byte) (bool, error) {
		if s < 0 || s >= n {
			return false, fmt.Errorf("shard: probe shard %d out of range [0,%d)", s, n)
		}
		return ss.Scheme.Answer(pending[s], q)
	}
	// SplitDelta receives the committed summary view — its contract only
	// depends on delta-invariant summary state (vertex universe, local
	// relabelling), so the view the answer paths use serves the whole batch
	// instead of one full summary decode per delta. Like Summary, it is
	// only written by maintainers.
	sv, err := ss.summaryView()
	if err != nil {
		return oldVersion, fmt.Errorf("shard: prepare summary: %w (nothing applied)", err)
	}
	applyStart := obs.Start()
	touched := make([]bool, n)
	for di, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return oldVersion, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		locals, err := ss.Sharding.SplitDelta(delta, ss.Asn, sv)
		if err != nil {
			return oldVersion, fmt.Errorf("shard: delta %d: %w (nothing applied)", di, err)
		}
		for s, lds := range locals {
			if s < 0 || s >= n {
				return oldVersion, fmt.Errorf("shard: delta %d routed to shard %d out of range [0,%d) (nothing applied)", di, s, n)
			}
			if len(lds) > 0 {
				touched[s] = true
			}
			for _, ld := range lds {
				if pending[s], err = inc.ApplyDelta(pending[s], ld); err != nil {
					return oldVersion, fmt.Errorf("shard: delta %d on shard %d: %w (nothing applied)", di, s, err)
				}
			}
		}
		if ss.Sharding.UpdateSummary != nil {
			if summary, err = ss.Sharding.UpdateSummary(delta, ss.Asn, summary, probe); err != nil {
				return oldVersion, fmt.Errorf("shard: delta %d: summary: %w (nothing applied)", di, err)
			}
		}
	}
	// Derived summary state (e.g. the reachability overlay closure) is
	// rebuilt once for the whole batch, not once per delta.
	if ss.Sharding.FinishSummary != nil {
		if summary, err = ss.Sharding.FinishSummary(ss.Asn, summary, probe); err != nil {
			return oldVersion, fmt.Errorf("shard: finish summary: %w (nothing applied)", err)
		}
	}
	obsPatchApply.Since(applyStart)
	newVersion := oldVersion + uint64(len(deltas))
	if err := ctx.Err(); err != nil {
		return oldVersion, fmt.Errorf("shard: %w (nothing applied)", err)
	}
	if err := ss.journal.Commit(med, ss.ID, oldVersion, deltas, func(fsys store.FS, dir string) error {
		return ss.saveGeneration(fsys, dir, pending, summary, newVersion)
	}); err != nil {
		return oldVersion, err
	}
	// The new summary's view is decoded here, outside the reader-blocking
	// lock, and installed with Summary below.
	prepared, prepErr := ss.Sharding.prepareSummary(summary)
	// Stage the touched shards' prepared answerers outside the
	// reader-blocking lock, so the commit below swaps ⟨Π, version,
	// prepared⟩ per shard without decoding anything while queries wait —
	// concurrently, as Build and LoadSharded warm, so PATCH latency grows
	// with the slowest touched shard's decode, not the sum of all n.
	// Untouched shards (pending[i] is still the slice View returned) keep
	// their current Π and its still-valid answerer; only the version
	// advances. Prepare failures are carried into the stores and surface
	// per answer, like the raw path's per-query validation (the
	// maintained bytes are the committed truth).
	staged := make([]core.Answerer, n)
	stagedErr := make([]error, n)
	var stageWG sync.WaitGroup
	for i := range pending {
		if !touched[i] {
			continue
		}
		stageWG.Add(1)
		go func(i int) {
			defer stageWG.Done()
			staged[i], stagedErr[i] = ss.Scheme.Prepare(pending[i])
		}(i)
	}
	stageWG.Wait()
	// Commit: everything swaps inside one writer-lock critical section,
	// the prepared summary with Summary, so no reader can pair the new
	// summary with the old view.
	ss.mu.Lock()
	for i, st := range ss.Stores {
		if touched[i] {
			st.ReplacePrepared(pending[i], newVersion, staged[i], stagedErr[i])
		} else {
			st.BumpVersion(newVersion)
		}
	}
	ss.Summary, ss.prepared, ss.prepErr = summary, prepared, prepErr
	ss.version = newVersion
	ss.mu.Unlock()
	return newVersion, nil
}

// Build cuts data into n parts with the partitioner, preprocesses every
// part concurrently, and assembles the sharded store. It does not persist
// anything; RegisterSharded adds snapshots and the manifest.
func Build(id string, scheme *core.Scheme, sh *Sharding, p Partitioner, n int, data []byte) (*ShardedStore, error) {
	if scheme == nil || sh == nil {
		return nil, fmt.Errorf("shard: build %q: nil scheme or sharding", id)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: build %q: shard count %d < 1", id, n)
	}
	keys, err := sh.Keys(data)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: keys: %w", id, err)
	}
	asn, err := p.Plan(keys, n)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: %w", id, err)
	}
	parts, summary, err := sh.Split(data, asn)
	if err != nil {
		return nil, fmt.Errorf("shard: build %q: split: %w", id, err)
	}
	if len(parts) != n {
		return nil, fmt.Errorf("shard: build %q: split produced %d parts, want %d", id, len(parts), n)
	}
	ss := &ShardedStore{
		ID:       id,
		Scheme:   scheme,
		Sharding: sh,
		Asn:      asn,
		Summary:  summary,
		Stores:   make([]*store.Store, n),
		DataSum:  store.SumData(data),
	}
	ss.prepared, ss.prepErr = sh.prepareSummary(summary)
	// Preprocess the parts concurrently: the per-part PTIME cost is the
	// thing sharding scales out.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d panicked: %v", id, i, p)
				}
			}()
			ppStart := obs.Start()
			pd, err := scheme.Preprocess(parts[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard: build %q: preprocess shard %d: %w", id, i, err)
				return
			}
			obsPreprocess.Since(ppStart)
			ss.Stores[i] = &store.Store{
				ID:      fmt.Sprintf("%s/shard%d", id, i),
				Scheme:  scheme,
				Prep:    pd,
				DataSum: store.SumData(parts[i]),
			}
			// Each shard's Π decodes into its prepared form inside the same
			// per-shard goroutine, so warm-up parallelizes with preprocessing.
			warmStart := obs.Start()
			ss.Stores[i].Warm()
			obsWarm.Since(warmStart)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ss, nil
}
