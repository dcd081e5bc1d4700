// The durability protocol, written once for every dataset kind. A plain
// Store and internal/shard's ShardedStore differ only in their artifact
// format — one snapshot file, or a manifest naming one generation of
// shard snapshot files — and supply it as callbacks. Everything that
// decides when bytes become durable, what a restart trusts, and what it
// sets aside lives here:
//
//   - Journal.Commit: the delta-log append as the commit point of a
//     PATCH, the checkpoint cadence, and checkpoint-or-count-failure;
//   - Registry.LoadOrBuild: reload the checkpoint (retrying transient
//     reads), or quarantine a corrupt artifact and rebuild from source
//     with backoff, keeping the load/preprocess counters and stages;
//   - replayLog: align the log tail against the checkpoint (skip, apply,
//     or fail on a gap), quarantine a corrupt log, and fold a non-empty
//     replay into a fresh checkpoint.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"time"

	"pitract/internal/obs"
	"pitract/internal/schemes"
)

// Persistence stage histograms: the log append (the commit point) and the
// checkpoint rewrite are timed separately from the in-memory apply so
// dashboards can tell CPU-bound maintenance apart from fsync-bound
// persistence. Checkpoint failures after a durable log append are counted,
// not fatal — the log stays authoritative and the next batch retries the
// checkpoint.
var (
	obsPatchPersist    = obs.Stage(obs.StagePatchPersist)
	obsLogAppend       = obs.Stage(obs.StageLogAppend)
	obsCheckpointFails = obs.Default.Counter("pitract_checkpoint_failures_total",
		"Checkpoint (snapshot rewrite + log truncate) failures after a durable log append.")
)

// Journal is a maintained dataset's write-ahead state: the number of
// delta-log records appended since its last checkpoint. The zero value is
// ready; the dataset guards it with its maintenance mutex.
type Journal struct{ records int }

// Commit makes one staged delta batch durable on med. It appends the batch
// (the original deltas, applying on top of fromVersion) to the dataset's
// delta log — CRC-framed and fsynced — and, when the medium's cadence is
// due, writes a checkpoint of the staged state with save and truncates the
// log. The append is the commit point: a failure there returns a
// *PersistError and the caller applies nothing; after it the caller
// commits unconditionally. A checkpoint failure is counted, not returned —
// the log stays authoritative, the next batch retries the checkpoint, and
// a restart replays the log. A volatile medium persists nothing.
func (j *Journal) Commit(med *Medium, id string, fromVersion uint64, deltas [][]byte, save func(fsys FS, dir string) error) error {
	if !med.persistent() {
		return nil
	}
	if id == "" {
		return fmt.Errorf("store: cannot persist deltas for a dataset with no ID (nothing applied)")
	}
	appendStart := obs.Start()
	if err := AppendLogRecord(med.fs(), LogPath(med.Dir, id), fromVersion, deltas); err != nil {
		return &PersistError{Err: fmt.Errorf("store: log delta batch: %w (nothing applied)", err)}
	}
	obsLogAppend.Since(appendStart)
	j.records++
	if j.records >= med.checkpointEvery() {
		persistStart := obs.Start()
		if med.checkpoint(id, save) {
			j.records = 0
			obsPatchPersist.Since(persistStart)
		}
	}
	return nil
}

// checkpoint writes the dataset's checkpoint with save (nil when the one
// on disk is already current) and then truncates its delta log.
// Save-then-remove: removing the log before a checkpoint holds its records
// would lose acknowledged batches, while a crash between the two steps
// leaves a stale log whose records replay as no-ops. A failure is counted
// and reported as false, never returned: the log stays authoritative.
func (m *Medium) checkpoint(id string, save func(fsys FS, dir string) error) bool {
	fsys := m.fs()
	if save != nil {
		if err := save(fsys, m.Dir); err != nil {
			obsCheckpointFails.Inc()
			return false
		}
	}
	if err := RemoveLog(fsys, LogPath(m.Dir, id)); err != nil {
		obsCheckpointFails.Inc()
		return false
	}
	return true
}

// Artifact is one dataset kind's on-disk format — everything about
// persistence that is not policy. LoadOrBuild owns the policy.
type Artifact struct {
	// Load reopens the persisted dataset from dir. A *CorruptArtifactError
	// names the damaged file, which is quarantined; a read that fails on
	// every retry fails the registration. Any other error, or a nil dataset
	// (one persisted for other data, another scheme or another layout),
	// means nothing reusable is on disk.
	Load func(fsys FS, dir string) (Dataset, error)
	// Build preprocesses the dataset from source and warms it.
	Build func() (Dataset, error)
	// Save writes ds's current state as the dataset's checkpoint.
	Save func(fsys FS, dir string, ds Dataset) error
}

// LoadOrBuild produces the dataset for one first-time registration of id:
// the persisted checkpoint with its delta-log tail replayed on top when
// the registry is persistent and a fresh one is on disk, otherwise a build
// from source, persisted as the new checkpoint. A corrupt checkpoint is
// renamed aside as *.quarantine and rebuilt instead of erroring the
// dataset permanently; its surviving delta log holds acknowledged batches
// for this same data and is replayed on the rebuild. A checkpoint that
// stays unreadable through the read retries fails the registration
// instead: nothing is rebuilt over it. Any other fresh build supersedes
// the log a previous incarnation of id left behind (different data,
// scheme or layout): its records apply to a Π that no longer exists.
//
// Counters count member stores: a sharded dataset is n loads or n
// preprocess calls.
func (r *Registry) LoadOrBuild(id string, a Artifact) (Dataset, error) {
	med := r.med
	// quarantined marks a registration whose persisted checkpoint was
	// corrupt and has been set aside.
	quarantined := false
	var fsys FS = retryReads{med.fs()}
	if med.persistent() {
		loadStart := obs.Start()
		ds, err := a.Load(fsys, med.Dir)
		if err == nil && ds != nil {
			obsSnapshotLoad.Since(loadStart)
			n := int64(ds.ShardCount())
			r.loadCount.Add(n)
			obsSnapshotLoadTotal.Add(n)
			// A crash between a durable log append and the checkpoint leaves
			// acknowledged batches only in the log: replay them so the restart
			// resumes at the exact applied version.
			if err := r.replayLog(fsys, ds, a.Save); err != nil {
				return nil, fmt.Errorf("store: register %q: %w", id, err)
			}
			if w, ok := ds.(interface{ Warm() }); ok {
				warm(w)
			}
			return ds, nil
		}
		var ce *CorruptArtifactError
		switch {
		case errors.As(err, &ce):
			// Keep the bytes for forensics under *.quarantine and rebuild Π
			// from source.
			r.quarantineArtifact(fsys, ce.Path, id)
			quarantined = true
			// The rebuild restarts at version 0. A surviving log whose first
			// record past version 0 starts above it was written on top of
			// the lost checkpoint and can never replay: set it aside too,
			// before the rebuild's checkpoint is written, or every later
			// restart would load that checkpoint and stop on the gap.
			logPath := LogPath(med.Dir, id)
			if records, err := ReadLog(fsys, logPath); err == nil {
				for _, rec := range records {
					if rec.FromVersion+uint64(len(rec.Deltas)) > 0 {
						if rec.FromVersion > 0 {
							r.quarantineArtifact(fsys, logPath, id)
						}
						break
					}
				}
			}
		case errors.Is(err, errUnreadable):
			// The checkpoint is there but cannot be read now. A rebuild would
			// overwrite acknowledged state with version 0 and drop its log;
			// failing lets a retry reload it once the medium recovers.
			return nil, fmt.Errorf("store: register %q: %w", id, err)
		}
	}
	ds, err := a.Build()
	if err != nil {
		return nil, err
	}
	n := int64(ds.ShardCount())
	r.preprocessCount.Add(n)
	obsPreprocessTotal.Add(n)
	if !med.persistent() {
		return ds, nil
	}
	saveStart := obs.Start()
	saveErr := a.Save(fsys, med.Dir, ds)
	for attempt := 1; saveErr != nil && quarantined && attempt < rebuildAttempts; attempt++ {
		// The heal path tolerates a still-flaky medium: retry the
		// rebuild's persistence with jittered backoff before giving up.
		rebuildBackoff(attempt)
		saveErr = a.Save(fsys, med.Dir, ds)
	}
	if saveErr != nil {
		return nil, saveErr
	}
	obsSnapshotSave.Since(saveStart)
	if quarantined {
		if err := r.replayLog(fsys, ds, a.Save); err != nil {
			return nil, fmt.Errorf("store: register %q: %w", id, err)
		}
	} else if err := RemoveLog(fsys, LogPath(med.Dir, id)); err != nil {
		return nil, err
	}
	return ds, nil
}

// replayLog applies the delta-log tail to a dataset whose checkpoint was
// just loaded or rebuilt. Records wholly at or below the checkpoint
// version skip; the record starting exactly at the current version applies
// (memory-only — the log already holds it durably); a gap or straddle
// means an acknowledged batch vanished (lying fsync, foreign truncation)
// and errors rather than silently resuming behind acknowledged state. A
// structurally corrupt log (foreign magic, or a CRC-valid body that does
// not parse — hostility, not a torn crash) is quarantined and the
// checkpoint served. After a non-empty replay the dataset checkpoints at
// the replayed version and the log is truncated; a failed checkpoint here
// is not fatal — the log stays authoritative and the next restart replays
// again.
func (r *Registry) replayLog(fsys FS, ds Dataset, save func(FS, string, Dataset) error) error {
	id := ds.DatasetID()
	logPath := LogPath(r.med.Dir, id)
	records, err := ReadLog(fsys, logPath)
	if err != nil {
		var ce *CorruptArtifactError
		if errors.As(err, &ce) {
			r.quarantineArtifact(fsys, logPath, id)
			return nil
		}
		return err
	}
	if len(records) == 0 {
		return nil
	}
	dd, _ := ds.(DeltaDataset)
	inc := schemes.IncrementalForScheme(ds.SchemeName())
	replayStart := obs.Start()
	replayed := 0
	for i, rec := range records {
		v := ds.Version()
		end := rec.FromVersion + uint64(len(rec.Deltas))
		if end <= v {
			continue // fully inside the checkpoint
		}
		if rec.FromVersion != v {
			return fmt.Errorf("replay log %s: record %d covers versions [%d,%d) but the checkpoint is at %d — an acknowledged batch is missing",
				logPath, i, rec.FromVersion, end, v)
		}
		if inc == nil || dd == nil {
			return fmt.Errorf("replay log %s: scheme %s has no incremental form to replay %d logged deltas",
				logPath, ds.SchemeName(), len(rec.Deltas))
		}
		if _, err := dd.ApplyDeltas(context.Background(), inc, rec.Deltas, nil); err != nil {
			return fmt.Errorf("replay log %s: record %d: %w", logPath, i, err)
		}
		replayed++
		r.replayCount.Add(1)
		obsLogReplayedTotal.Inc()
	}
	obsLogReplay.Since(replayStart)
	// Fold the replayed state into a checkpoint, or just drop a log that
	// was entirely stale.
	var fold func(FS, string) error
	if replayed > 0 {
		fold = func(fsys FS, dir string) error { return save(fsys, dir, ds) }
	}
	r.med.checkpoint(id, fold)
	return nil
}

// warm decodes Π into its prepared form while still inside the one build
// a registration runs — queries then pay only probes.
func warm(ds interface{ Warm() }) {
	warmStart := obs.Start()
	ds.Warm()
	obsWarm.Since(warmStart)
}

// quarantineArtifact renames a corrupt artifact aside for forensics and
// records the quarantine on the registry's counters and the dataset's
// breaker. A rename failure must not block the rebuild — the artifact is
// unreadable either way.
func (r *Registry) quarantineArtifact(fsys FS, path, id string) {
	if err := fsys.Rename(path, QuarantinePath(path)); err == nil {
		fsys.SyncDir(filepath.Dir(path))
	}
	r.quarantineCount.Add(1)
	obsQuarantines.Inc()
	r.Breaker(id).MarkQuarantined()
}

// rebuildAttempts bounds the jittered-backoff retry loop around
// persistence I/O on the quarantine-and-heal rebuild path (and the
// transient-read retry before declaring an artifact unreadable).
const rebuildAttempts = 3

// rebuildBackoff sleeps before retry attempt (1-based), with ±50%
// jitter so concurrent rebuilds don't hammer a recovering medium in
// lockstep: 5ms, 10ms, 20ms… before jitter.
func rebuildBackoff(attempt int) {
	base := 5 * time.Millisecond << (attempt - 1)
	time.Sleep(time.Duration(float64(base) * (0.5 + rand.Float64())))
}

// errUnreadable marks a read that failed on every retry: the file may be
// intact, so it is neither quarantined nor rebuilt over.
var errUnreadable = errors.New("unreadable")

// retryReads retries transient read errors with jittered backoff while a
// registration loads. A missing file returns at once, and so does every
// read that delivered bytes: a decode failure on them is the loader's
// CorruptArtifactError, and neither gets better by reading again.
type retryReads struct{ FS }

func (f retryReads) ReadFile(name string) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		b, err := f.FS.ReadFile(name)
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			return b, err
		}
		if attempt >= rebuildAttempts {
			return nil, fmt.Errorf("%w after %d attempts: %w", errUnreadable, attempt, err)
		}
		rebuildBackoff(attempt)
	}
}
