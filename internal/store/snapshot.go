// Package store persists preprocessed stores and serves them from a
// registry. The paper's asymmetry — pay PTIME preprocessing once, then
// answer every query within the NC budget — only pays off in a system when
// Π(D) outlives the process that computed it. This package makes Π(D) a
// durable artifact: a versioned, checksummed snapshot file that can be
// written once and reloaded across restarts, plus a thread-safe Registry
// that maps dataset IDs to preprocessed stores, preprocessing on first
// registration and memoizing (and optionally persisting) thereafter.
//
// The snapshot format is deliberately dumb: magic, format version, a CRC-32
// of the payload, then the scheme name, free-text notes, a SHA-256 of the
// raw data the store was preprocessed from, and the preprocessed bytes —
// the fields framed with the same self-delimiting pair codec (core.PadPair)
// the formal framework uses for instance encoding. Corrupt or truncated
// files are rejected with errors, never panics (see the fuzz harness).
//
// The registry's catalog is shape-agnostic: an entry is any Dataset — a
// plain Store here, or a composite like internal/shard's ShardedStore
// plugged in through RegisterDataset — and the HTTP server answers through
// that interface, so new dataset shapes need no serving changes.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/core"
	"pitract/internal/obs"
)

// obsPatchApply times the incremental in-memory apply of a PATCH; the
// persistence stages beside it live with the commit protocol (durable.go).
var obsPatchApply = obs.Stage(obs.StagePatchApply)

// snapshotMagic opens every snapshot file. The trailing byte is the format
// version; bump it when the payload layout changes. Version 2 added the
// maintenance version counter (incremental serving); version 3 wrapped the
// preprocessed bytes in a compressed, stream-decodable section (see
// encodePrepSection). Version-1 and version-2 files are still decoded —
// v1 as version-0 datasets, v2 with its raw prep bytes.
var (
	snapshotMagic   = []byte("PITRACTS\x03")
	snapshotMagicV2 = []byte("PITRACTS\x02")
	snapshotMagicV1 = []byte("PITRACTS\x01")
)

// Prep-section codecs (the first byte of a v3 snapshot's prep section).
const (
	// prepCodecRaw stores Π verbatim.
	prepCodecRaw = 0
	// prepCodecDeltaVarint stores Π as delta-varints of its non-decreasing
	// 8-byte big-endian records — the shape of every sorted-key artifact
	// (point/range selection, list membership), whose biased big-endian
	// keys are order-preserving, so a sorted file is exactly a
	// non-decreasing record sequence.
	prepCodecDeltaVarint = 1
)

// encodePrepSection renders Π as a self-describing compressed section:
//
//	codec byte ‖ body
//
// The encoder applies the delta-varint codec only when Π parses as a
// non-empty sequence of non-decreasing 8-byte big-endian records AND the
// encoding is strictly smaller; anything else ships raw. Both codecs
// decode in one forward pass with O(1) extra state per record — a reader
// can stream records out of the section without materializing Π first —
// and the codec choice is a pure function of the content, so
// encode(decode(section)) is deterministic.
func encodePrepSection(prep []byte) []byte {
	if dv := deltaEncodeRecords(prep); dv != nil {
		return append([]byte{prepCodecDeltaVarint}, dv...)
	}
	return append([]byte{prepCodecRaw}, prep...)
}

// deltaEncodeRecords delta-varint encodes a non-decreasing sequence of
// 8-byte big-endian records as
//
//	uvarint count ‖ uvarint first ‖ (count−1) × uvarint diff
//
// or returns nil when the input is not such a sequence or the encoding
// would not shrink it.
func deltaEncodeRecords(prep []byte) []byte {
	if len(prep) == 0 || len(prep)%8 != 0 {
		return nil
	}
	count := len(prep) / 8
	out := binary.AppendUvarint(nil, uint64(count))
	prev := uint64(0)
	for i := 0; i < len(prep); i += 8 {
		r := binary.BigEndian.Uint64(prep[i:])
		if i == 0 {
			out = binary.AppendUvarint(out, r)
		} else {
			if r < prev {
				return nil // not sorted: codec does not apply
			}
			out = binary.AppendUvarint(out, r-prev)
		}
		prev = r
		if len(out) >= len(prep) {
			return nil // not shrinking: raw wins
		}
	}
	return out
}

// decodePrepSection parses a v3 prep section. Hostile sections fail
// closed: the record count is bounded by the remaining bytes before any
// allocation, accumulator overflow is rejected, and trailing bytes are an
// error — never a panic, never an unbounded allocation.
func decodePrepSection(sec []byte) ([]byte, error) {
	if len(sec) == 0 {
		return nil, fmt.Errorf("store: empty snapshot prep section")
	}
	codec, body := sec[0], sec[1:]
	switch codec {
	case prepCodecRaw:
		return append([]byte(nil), body...), nil
	case prepCodecDeltaVarint:
		count, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, fmt.Errorf("store: corrupt prep section record count")
		}
		body = body[k:]
		// Every record costs at least one varint byte, so a count beyond
		// the remaining bytes is hostile — reject before allocating 8×.
		if count == 0 || count > uint64(len(body)) {
			return nil, fmt.Errorf("store: prep section claims %d records with %d bytes remaining", count, len(body))
		}
		prep := make([]byte, 0, count*8)
		prev := uint64(0)
		for i := uint64(0); i < count; i++ {
			d, k := binary.Uvarint(body)
			if k <= 0 {
				return nil, fmt.Errorf("store: corrupt prep section at record %d", i)
			}
			body = body[k:]
			if i == 0 {
				prev = d
			} else {
				next := prev + d
				if next < prev {
					return nil, fmt.Errorf("store: prep section record %d overflows", i)
				}
				prev = next
			}
			prep = binary.BigEndian.AppendUint64(prep, prev)
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("store: %d trailing prep section bytes", len(body))
		}
		return prep, nil
	default:
		return nil, fmt.Errorf("store: unknown prep section codec %d", codec)
	}
}

// DataChecksum is the SHA-256 digest of the raw (pre-preprocessing) data a
// snapshot was built from. Open uses it to detect stale snapshots: when the
// data under a dataset ID changes, the old Π(D) is silently invalid, so the
// digest — not the file's existence — decides whether a reload is sound.
type DataChecksum = [sha256.Size]byte

// Snapshot is one persisted preprocessed store: which scheme produced it,
// human-readable notes (the scheme's complexity annotations by default), the
// digest of the data it was preprocessed from, the maintenance version (how
// many deltas have been applied to Π since registration — 0 for a store
// that has only ever been preprocessed), and Π itself. A snapshot with
// Version > 0 holds the maintained Π(D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ), so a restart
// resumes from the maintained structure, never a stale one.
type Snapshot struct {
	SchemeName string
	Notes      string
	DataSum    DataChecksum
	Version    uint64
	Prep       []byte
}

// EncodeSnapshot renders a snapshot in the versioned on-disk format:
//
//	magic ‖ version ‖ crc32(payload) ‖ payload
//	payload = PadPair(PadPair(scheme, notes), PadPair(dataSum ‖ uvarint(maintVersion), prepSection))
//
// where prepSection is Π wrapped in the compressed, stream-decodable
// section format (see encodePrepSection): sorted-key artifacts shrink to
// delta-varints of their records, everything else ships raw behind a
// one-byte codec tag.
func EncodeSnapshot(s *Snapshot) []byte {
	header := core.PadPair([]byte(s.SchemeName), []byte(s.Notes))
	meta := binary.AppendUvarint(append([]byte(nil), s.DataSum[:]...), s.Version)
	body := core.PadPair(meta, encodePrepSection(s.Prep))
	payload := core.PadPair(header, body)
	out := make([]byte, 0, len(snapshotMagic)+4+len(payload))
	out = append(out, snapshotMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// DecodeSnapshot parses the versioned format — current (v3, compressed
// prep section), v2 (raw prep), and the pre-delta v1 layout, which decodes
// as maintenance version 0. Any deviation — wrong magic, unknown version,
// bad checksum, truncated or malformed payload or prep section — is an
// error; DecodeSnapshot never panics on hostile input.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(b))
	}
	for i, m := range snapshotMagic[:len(snapshotMagic)-1] {
		if b[i] != m {
			return nil, fmt.Errorf("store: bad snapshot magic (offset %d)", i)
		}
	}
	verByte := b[len(snapshotMagic)-1]
	if verByte != snapshotMagic[len(snapshotMagic)-1] &&
		verByte != snapshotMagicV2[len(snapshotMagicV2)-1] &&
		verByte != snapshotMagicV1[len(snapshotMagicV1)-1] {
		return nil, fmt.Errorf("store: unknown snapshot format version %d", verByte)
	}
	v1 := verByte == snapshotMagicV1[len(snapshotMagicV1)-1]
	v3 := verByte == snapshotMagic[len(snapshotMagic)-1]
	want := binary.BigEndian.Uint32(b[len(snapshotMagic):])
	payload := b[len(snapshotMagic)+4:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (want %08x, got %08x)", want, got)
	}
	header, body, err := core.UnpadPair(payload)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot payload: %w", err)
	}
	scheme, notes, err := core.UnpadPair(header)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot header: %w", err)
	}
	meta, prep, err := core.UnpadPair(body)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot body: %w", err)
	}
	s := &Snapshot{
		SchemeName: string(scheme),
		Notes:      string(notes),
	}
	if v3 {
		if s.Prep, err = decodePrepSection(prep); err != nil {
			return nil, err
		}
	} else {
		s.Prep = append([]byte(nil), prep...)
	}
	if len(meta) < len(s.DataSum) {
		return nil, fmt.Errorf("store: data checksum is %d bytes, want %d", len(meta), len(s.DataSum))
	}
	copy(s.DataSum[:], meta)
	rest := meta[len(s.DataSum):]
	if v1 {
		if len(rest) != 0 {
			return nil, fmt.Errorf("store: %d trailing snapshot metadata bytes", len(rest))
		}
		return s, nil
	}
	ver, k := binary.Uvarint(rest)
	if k <= 0 || k != len(rest) {
		return nil, fmt.Errorf("store: corrupt snapshot maintenance version")
	}
	s.Version = ver
	return s, nil
}

// WriteFileAtomic is WriteFileAtomicFS on the real disk (see fs.go for the
// crash-safety contract, including the closing directory fsync).
func WriteFileAtomic(path string, b []byte) error {
	return WriteFileAtomicFS(OSFS, path, b)
}

// Save writes a snapshot atomically (see WriteFileAtomicFS); the checksum
// in the encoding catches torn files from less careful writers.
func Save(path string, s *Snapshot) error {
	return WriteFileAtomic(path, EncodeSnapshot(s))
}

// SaveFS is Save on an explicit file layer.
func SaveFS(fsys FS, path string, s *Snapshot) error {
	return WriteFileAtomicFS(fsys, path, EncodeSnapshot(s))
}

// Load reads and validates a snapshot file.
func Load(path string) (*Snapshot, error) { return LoadFS(OSFS, path) }

// LoadFS is Load on an explicit file layer.
func LoadFS(fsys FS, path string) (*Snapshot, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: load %s: %w", path, err)
	}
	s, err := DecodeSnapshot(b)
	if err != nil {
		// Structural failure (magic, CRC, decode) on bytes the medium
		// delivered intact: the artifact itself is corrupt, not the read.
		// The typed wrapper lets the registry quarantine-and-rebuild
		// instead of treating it like a transient I/O error.
		return nil, &CorruptArtifactError{Path: path, Err: fmt.Errorf("store: load %s: %w", path, err)}
	}
	return s, nil
}

// CorruptArtifactError marks a persisted artifact (snapshot, shard
// manifest or shard snapshot, or delta log) that failed structural
// validation — wrong magic, checksum or digest mismatch, or an
// undecodable body — as opposed to a transient I/O error reading it. The
// registry responds by renaming the artifact to *.quarantine and
// rebuilding from source (see Registry.LoadOrBuild) rather than wedging
// the dataset. The message is the underlying error's, unchanged.
type CorruptArtifactError struct {
	Path string
	Err  error
}

func (e *CorruptArtifactError) Error() string { return e.Err.Error() }

func (e *CorruptArtifactError) Unwrap() error { return e.Err }

// SumData digests raw data for snapshot freshness checks.
func SumData(data []byte) DataChecksum { return sha256.Sum256(data) }

// Store is one preprocessed store ready to answer queries: a scheme plus
// its Π(D). Any number of goroutines may call Answer or AnswerBatch
// concurrently (the scheme concurrency contract, core/batch.go), and —
// when the scheme has an incremental form — ApplyDeltas maintains Π(D ⊕ ∆D)
// in place under a writer lock: the preprocessed string is replaced
// wholesale, so a concurrent query always answers against a fully applied
// Π (old or new), never a torn one.
type Store struct {
	// ID is the dataset identifier the store was registered under ("" for
	// stores opened directly from a path).
	ID string
	// Scheme is the Π-tractability scheme that produced — and answers
	// against — the preprocessed bytes.
	Scheme *core.Scheme
	// Prep is Π(D) at construction. Once the store is shared it is guarded
	// by the writer lock: read it through View (or Answer/Snapshot), never
	// directly.
	Prep []byte
	// DataSum digests the raw data the store was originally registered
	// from. Deltas do not change it — the digest pins the registration
	// identity, while Version counts the maintenance steps applied since.
	DataSum DataChecksum
	// Loaded reports whether Prep came from a snapshot file (true) or a
	// fresh Preprocess call (false).
	Loaded bool

	// mu guards Prep, version, and the prepared answerer: ApplyDeltas swaps
	// them under the write lock, answer paths snapshot them under the read
	// lock. The write lock is held only for the pointer swap — never across
	// delta application, answerer preparation, or snapshot I/O — so queries
	// are never blocked on maintenance work.
	mu sync.RWMutex
	// maintMu serializes maintainers (ApplyDeltas callers), so the
	// staged state and the snapshot on disk can be built outside mu
	// without a later writer overwriting a newer version with a stale one.
	maintMu sync.Mutex
	// version counts the deltas applied since registration; it only ever
	// grows, and every applied delta bumps it by one.
	version uint64
	// journal is the write-ahead commit state (guarded by maintMu).
	journal Journal
	// prep is the prepared answerer for the current Π (core.PreparedScheme):
	// the scheme's typed decoded form, built once per Π — eagerly by Warm at
	// registration/load, or lazily on the first answer for stores assembled
	// by hand — and refreshed as part of the same commit that swaps Prep and
	// version, so a query never pairs a new Π with an old prepared form. It
	// is nil while the answerer is unbuilt. Writers store it inside mu's
	// write-locked sections; the answer path loads it without taking mu, so
	// a probe costs no lock traffic.
	prep atomic.Pointer[prepared]
	// fb is the degraded-mode fallback answerer for the current Π (built
	// from Scheme.PrepareFallback on first degraded answer, invalidated
	// with prep on every maintenance commit); fbErr is its sticky build
	// failure. Both are guarded by mu.
	fb    core.Answerer
	fbErr error
}

// prepared is a built answerer for one Π, or its sticky Prepare failure (a
// corrupt preprocessed string errors once at preparation; every answer
// surfaces it, matching the raw path's per-query validation error).
type prepared struct {
	ans core.Answerer
	err error
}

// PrepareError marks a failed Scheme.Prepare — the answerer build —
// as opposed to a per-query validation failure. The serving layer
// classifies it as a server-side fault (the dataset's Π is unreadable)
// and counts it against the dataset's health breaker, whose half-open
// probe retries the build via RetryPrepare. The message is the
// underlying error's, unchanged, so the raw path's pinned error
// strings hold.
type PrepareError struct{ Err error }

func (e *PrepareError) Error() string { return e.Err.Error() }

func (e *PrepareError) Unwrap() error { return e.Err }

// wrapPrepareErr types a Prepare failure exactly once.
func wrapPrepareErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *PrepareError
	if errors.As(err, &pe) {
		return err
	}
	return &PrepareError{Err: err}
}

// SetVersion stamps the maintenance version on a freshly constructed store
// (snapshot reloads restore the persisted counter). It must not be called
// once the store is shared; ApplyDeltas is the concurrent-safe mutation.
func (st *Store) SetVersion(v uint64) { st.version = v }

// View returns the current preprocessed string and the maintenance version
// it corresponds to, as one consistent pair. The returned slice is the
// immutable current Π — ApplyDeltas replaces the slice rather than mutating
// it, so callers may read it without holding any lock.
func (st *Store) View() ([]byte, uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.Prep, st.version
}

// ReplacePrepared swaps ⟨Π, version, prepared answerer⟩ in one writer-lock
// critical section — the commit step of maintenance (plain, and each
// member store of a sharded batch), which stages the new Π and prepares
// it outside the store, so the reader-blocking lock is never held across
// Prepare's decode work. a and aerr may both be nil to defer preparation
// to the first answer.
func (st *Store) ReplacePrepared(prep []byte, version uint64, a core.Answerer, aerr error) {
	st.mu.Lock()
	st.Prep, st.version = prep, version
	if a == nil && aerr == nil {
		st.prep.Store(nil) // unbuilt: the first answer prepares it
	} else {
		st.prep.Store(&prepared{ans: a, err: wrapPrepareErr(aerr)})
	}
	// The fallback answerer decodes the same Π: a maintenance commit
	// invalidates it too (rebuilt lazily on the next degraded answer).
	st.fb, st.fbErr = nil, nil
	st.mu.Unlock()
}

// BumpVersion advances the maintenance version while keeping the current
// Π and its prepared answerer — the commit step for a member store of a
// composite (sharded) dataset whose own Π a delta batch did not touch:
// its answerer is still valid, so discarding it would only re-pay the
// decode for nothing.
func (st *Store) BumpVersion(version uint64) {
	st.mu.Lock()
	st.version = version
	st.mu.Unlock()
}

// Warm builds the prepared answerer for the current Π now, so the first
// query pays a probe, not a decode. Registration and snapshot/manifest
// reloads call it; stores assembled by hand fall back to the same build on
// their first answer. Prepare failures are not fatal here — they surface,
// with the identical message, on every subsequent Answer.
func (st *Store) Warm() { st.answerer() }

// answerer returns the prepared answerer for the current Π, building and
// installing it on first use. The double-check under the write lock keeps
// a racing maintenance commit authoritative: if the version moved while we
// prepared, the freshly built form still matches the Π this call read, so
// it is used for this answer and discarded.
func (st *Store) answerer() (core.Answerer, error) {
	if p := st.prep.Load(); p != nil {
		return p.ans, p.err
	}
	st.mu.RLock()
	p, pd, v := st.prep.Load(), st.Prep, st.version
	st.mu.RUnlock()
	if p != nil {
		return p.ans, p.err
	}
	a, aerr := st.Scheme.Prepare(pd)
	p = &prepared{ans: a, err: wrapPrepareErr(aerr)}
	st.mu.Lock()
	if st.prep.Load() == nil && st.version == v {
		st.prep.Store(p)
	}
	st.mu.Unlock()
	return p.ans, p.err
}

// RetryPrepare implements PrepareRetrier: it drops the cached prepared
// answerer (successful or failed) and rebuilds it from the current Π.
// This is the heal path for a Prepare that failed transiently (e.g. an
// injected I/O fault inside a scheme's decode): without it the first
// failure would poison the store until restart. Called by a health
// breaker's half-open probe.
func (st *Store) RetryPrepare() error {
	st.mu.Lock()
	st.prep.Store(nil)
	st.fb, st.fbErr = nil, nil
	st.mu.Unlock()
	_, err := st.answerer()
	return err
}

// Version implements Dataset: the number of deltas applied since
// registration.
func (st *Store) Version() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.version
}

// ApplyDeltas implements DeltaDataset: it maintains the store under a
// batch of deltas using the scheme's incremental form,
// Π ← ApplyDelta(…ApplyDelta(Π, ∆D₁)…, ∆Dₖ), applied atomically — either
// every delta commits and the version grows by k, or none do and the store
// (and its durable state) are untouched.
//
// With a persistent medium the staged batch commits through
// Journal.Commit: it is appended to the dataset's delta log — CRC-framed
// and fsynced — before any in-memory state changes, so the durable
// artifact is never behind a state a query has already observed (a failed
// append aborts with nothing applied), and on the medium's checkpoint
// cadence the maintained snapshot is rewritten and the log truncated.
//
// ctx bounds the batch: it is checked before each delta and before the
// commit point, so a budget that expires mid-batch aborts with nothing
// applied — individual delta applications are the cancellation granularity
// and are never torn.
//
// Delta application and persistence I/O run under the maintenance mutex
// only — the reader-blocking write lock is taken just for the final
// pointer swap, so concurrent queries never wait on maintenance work.
//
// Registry.ApplyDelta is the catalog-level entry point; it resolves inc by
// scheme name and supplies its medium.
func (st *Store) ApplyDeltas(ctx context.Context, inc *core.IncrementalScheme, deltas [][]byte, med *Medium) (uint64, error) {
	if inc == nil || inc.ApplyDelta == nil {
		return st.Version(), fmt.Errorf("store: scheme %s has no incremental form", st.Scheme.Name())
	}
	if len(deltas) == 0 {
		return st.Version(), nil // no-op, no log record
	}
	st.maintMu.Lock()
	defer st.maintMu.Unlock()
	// maintMu is the only writer seam, so the view cannot move under us.
	cur, oldVersion := st.View()
	applyStart := obs.Start()
	for i, delta := range deltas {
		if err := ctx.Err(); err != nil {
			return oldVersion, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		next, err := inc.ApplyDelta(cur, delta)
		if err != nil {
			return oldVersion, fmt.Errorf("store: delta %d: %w (nothing applied)", i, err)
		}
		cur = next
	}
	obsPatchApply.Since(applyStart)
	if err := ctx.Err(); err != nil {
		return oldVersion, fmt.Errorf("store: %w (nothing applied)", err)
	}
	newVersion := oldVersion + uint64(len(deltas))
	if err := st.journal.Commit(med, st.ID, oldVersion, deltas, func(fsys FS, dir string) error {
		snap := st.snapshotSkeleton()
		snap.Prep, snap.Version = cur, newVersion
		return SaveFS(fsys, SnapshotPath(dir, st.ID), snap)
	}); err != nil {
		return oldVersion, err
	}
	// The maintained Π's prepared answerer is built here, outside the
	// reader-blocking lock, and committed with ⟨Π, version⟩ in one swap. A
	// Prepare failure does not abort the batch — the maintained bytes are
	// the committed truth, and answers surface the same validation error
	// the raw path would report per query.
	a, aerr := st.Scheme.Prepare(cur)
	st.ReplacePrepared(cur, newVersion, a, aerr)
	return newVersion, nil
}

// DatasetID implements Dataset.
func (st *Store) DatasetID() string { return st.ID }

// SchemeName implements Dataset.
func (st *Store) SchemeName() string { return st.Scheme.Name() }

// DataDigest implements Dataset.
func (st *Store) DataDigest() DataChecksum { return st.DataSum }

// PrepBytes implements Dataset: the size of the current Π.
func (st *Store) PrepBytes() int {
	pd, _ := st.View()
	return len(pd)
}

// ShardCount implements Dataset: a plain store is its own single shard.
func (st *Store) ShardCount() int { return 1 }

// SnapshotBytes implements SnapshotSizer: the encoded size of the store's
// snapshot at its current version — what a checkpoint would write, whether
// or not the store is persisted.
func (st *Store) SnapshotBytes() int { return len(EncodeSnapshot(st.Snapshot())) }

// WasLoaded implements Dataset.
func (st *Store) WasLoaded() bool { return st.Loaded }

// Answer decides one query against the preprocessed store, through the
// scheme's prepared (decoded-once) form — the raw Scheme.Answer stays
// available as the differential oracle.
func (st *Store) Answer(q []byte) (bool, error) {
	a, err := st.answerer()
	if err != nil {
		return false, err
	}
	return a.Answer(q)
}

// AnswerBatch answers queries concurrently through the scheme's worker
// pool; parallelism <= 0 selects GOMAXPROCS. The whole batch answers
// against one consistent Π — the prepared form is snapshot once up front,
// even if a delta commits mid-batch.
func (st *Store) AnswerBatch(queries [][]byte, parallelism int) ([]bool, error) {
	return st.batch(context.Background(), st.answerer, queries, parallelism)
}

// AnswerContext implements ContextAnswerer: Answer with a cancellation
// check up front (a single prepared probe is too fine-grained to
// interrupt mid-flight).
func (st *Store) AnswerContext(ctx context.Context, q []byte) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return st.Answer(q)
}

// AnswerBatchContext implements ContextAnswerer: AnswerBatch with the
// context consulted before every probe, so an expired deadline abandons
// the remainder of the batch instead of paying it.
func (st *Store) AnswerBatchContext(ctx context.Context, queries [][]byte, parallelism int) ([]bool, error) {
	return st.batch(ctx, st.answerer, queries, parallelism)
}

// batch is the one body behind every batch answer path: pick supplies the
// answerer (exact, fallback, or the degradable mix), which answers the
// whole batch on the core worker pool under ctx.
func (st *Store) batch(ctx context.Context, pick func() (core.Answerer, error), queries [][]byte, parallelism int) ([]bool, error) {
	if len(queries) == 0 {
		// The raw batch path returns no error on an empty batch even over
		// a corrupt Π (it never calls Answer); match it.
		return []bool{}, nil
	}
	a, err := pick()
	if err != nil {
		// A corrupt Π fails the raw path at its first query; report the
		// sticky Prepare error in exactly that shape.
		return nil, fmt.Errorf("scheme %s: batch query %d: %w", st.Scheme.Name(), 0, err)
	}
	return core.AnswerBatchPreparedContext(ctx, st.Scheme.Name(), a, queries, parallelism)
}

// fallbackAnswerer returns the degraded-mode answerer for the current
// Π, building and installing it on first use with the same
// version-checked double-install discipline as answerer.
func (st *Store) fallbackAnswerer() (core.Answerer, error) {
	if st.Scheme.PrepareFallback == nil {
		return nil, fmt.Errorf("store: scheme %s declares no degraded fallback", st.Scheme.Name())
	}
	st.mu.RLock()
	fb, fbErr, pd, v := st.fb, st.fbErr, st.Prep, st.version
	st.mu.RUnlock()
	if fb != nil || fbErr != nil {
		return fb, fbErr
	}
	fb, fbErr = st.Scheme.PrepareFallback(pd)
	st.mu.Lock()
	if st.fb == nil && st.fbErr == nil && st.version == v {
		st.fb, st.fbErr = fb, fbErr
	}
	st.mu.Unlock()
	return fb, fbErr
}

// CanDegrade implements DegradedDataset: whether the scheme declares a
// cheaper fallback answerer.
func (st *Store) CanDegrade() bool { return st.Scheme.PrepareFallback != nil }

// AnswerDegraded implements DegradedDataset: one query through the
// scheme's declared fallback. Verdicts are exact — the fallback trades
// probe cost and build cost, not correctness.
func (st *Store) AnswerDegraded(q []byte) (bool, error) {
	fb, err := st.fallbackAnswerer()
	if err != nil {
		return false, err
	}
	return fb.Answer(q)
}

// AnswerBatchDegraded implements DegradedDataset: a whole batch through
// the fallback, with the usual batch error shape.
func (st *Store) AnswerBatchDegraded(queries [][]byte, parallelism int) ([]bool, error) {
	return st.batch(context.Background(), st.fallbackAnswerer, queries, parallelism)
}

// AnswerBatchDegradable implements DegradableBatcher: the batch starts
// on the exact path and switches to the scheme's declared fallback once
// less than a quarter of the deadline budget remains, reporting how
// many queries answered degraded. Without a deadline or a fallback it
// is the plain context batch.
func (st *Store) AnswerBatchDegradable(ctx context.Context, queries [][]byte, parallelism int) ([]bool, int, error) {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline || !st.CanDegrade() {
		ans, err := st.AnswerBatchContext(ctx, queries, parallelism)
		return ans, 0, err
	}
	var degraded atomic.Int64
	ans, err := st.batch(ctx, func() (core.Answerer, error) {
		a, err := st.answerer()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var fbOnce sync.Once
		var fb core.Answerer
		var fbErr error
		return core.AnswererFunc(func(q []byte) (bool, error) {
			if budgetLow(start, deadline) {
				fbOnce.Do(func() { fb, fbErr = st.fallbackAnswerer() })
				if fbErr == nil && fb != nil {
					degraded.Add(1)
					return fb.Answer(q)
				}
			}
			return a.Answer(q)
		}), nil
	}, queries, parallelism)
	return ans, int(degraded.Load()), err
}

// Snapshot renders the store as a persistable snapshot.
func (st *Store) Snapshot() *Snapshot {
	s := st.snapshotSkeleton()
	s.Prep, s.Version = st.View()
	return s
}

// snapshotSkeleton builds the snapshot skeleton (everything but Prep and
// Version), which needs no locking — the remaining fields are immutable.
func (st *Store) snapshotSkeleton() *Snapshot {
	return &Snapshot{
		SchemeName: st.Scheme.Name(),
		Notes:      st.Scheme.PreprocessNote + " / " + st.Scheme.AnswerNote,
		DataSum:    st.DataSum,
	}
}

// Open returns a preprocessed store for (scheme, data), reusing the
// snapshot at path when it is fresh: same scheme name and same data
// digest. Otherwise it preprocesses, saves the new snapshot to path, and
// returns the fresh store. This is the single-store face of the
// preprocess-once contract; Registry does the same per dataset ID.
func Open(path string, scheme *core.Scheme, data []byte) (*Store, error) {
	sum := SumData(data)
	if snap, err := Load(path); err == nil &&
		snap.SchemeName == scheme.Name() && snap.DataSum == sum {
		st := &Store{Scheme: scheme, Prep: snap.Prep, DataSum: sum, Loaded: true, version: snap.Version}
		st.Warm()
		return st, nil
	}
	pd, err := scheme.Preprocess(data)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: preprocess (%s): %w", path, scheme.Name(), err)
	}
	st := &Store{Scheme: scheme, Prep: pd, DataSum: sum}
	if err := Save(path, st.Snapshot()); err != nil {
		return nil, err
	}
	st.Warm()
	return st, nil
}
