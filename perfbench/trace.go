package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pitract/internal/core"
	"pitract/internal/store"
)

// span is one timed call into a layer. Spans of one traced request nest
// through parent (-1 for a root).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int
}

// tracer keeps spans in memory. Requests are replayed one at a time, so
// the innermost open span is the parent of the next one to start, even
// when the deadline guard moves the call onto another goroutine.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: now, parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		cur := s.start // covered up to here
		for _, k := range kids {
			lo, hi := max(spans[k].start, cur), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				cur = hi
			}
		}
	}
	return self
}

// spanStats aggregates spans by name; stats also splits each name into
// name+"+child" (spans with children) and name+"-child" (leaf spans).
type spanStats struct {
	count          int
	total, selfSum int64
}

func (t *tracer) stats() map[string]*spanStats {
	self := selfTimes(t.spans)
	hasChild := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			hasChild[s.parent] = true
		}
	}
	out := map[string]*spanStats{}
	add := func(name string, i int) {
		st := out[name]
		if st == nil {
			st = &spanStats{}
			out[name] = st
		}
		st.count++
		st.total += t.spans[i].end - t.spans[i].start
		st.selfSum += self[i]
	}
	for i, s := range t.spans {
		add(s.name, i)
		if hasChild[i] {
			add(s.name+"+child", i)
		} else {
			add(s.name+"-child", i)
		}
	}
	return out
}

// tracedDataset records a span around every answer call of the wrapped
// dataset. The wrap function returns it combined with exactly the
// optional interfaces the wrapped value implements, so the serving code
// takes the same branches it takes on the unwrapped value.
type tracedDataset struct {
	store.Dataset
	ca   store.ContextAnswerer
	t    *tracer
	name string
}

func (d *tracedDataset) Answer(q []byte) (bool, error) {
	i := d.t.begin(d.name)
	defer d.t.end(i)
	return d.Dataset.Answer(q)
}

func (d *tracedDataset) AnswerBatch(qs [][]byte, par int) ([]bool, error) {
	i := d.t.begin(d.name)
	defer d.t.end(i)
	return d.Dataset.AnswerBatch(qs, par)
}

func (d *tracedDataset) AnswerContext(ctx context.Context, q []byte) (bool, error) {
	i := d.t.begin(d.name)
	defer d.t.end(i)
	return d.ca.AnswerContext(ctx, q)
}

func (d *tracedDataset) AnswerBatchContext(ctx context.Context, qs [][]byte, par int) ([]bool, error) {
	i := d.t.begin(d.name)
	defer d.t.end(i)
	return d.ca.AnswerBatchContext(ctx, qs, par)
}

type degradedPart struct {
	dd   store.DegradedDataset
	t    *tracer
	name string
}

func (p degradedPart) CanDegrade() bool { return p.dd.CanDegrade() }

func (p degradedPart) AnswerDegraded(q []byte) (bool, error) {
	i := p.t.begin(p.name)
	defer p.t.end(i)
	return p.dd.AnswerDegraded(q)
}

func (p degradedPart) AnswerBatchDegraded(qs [][]byte, par int) ([]bool, error) {
	i := p.t.begin(p.name)
	defer p.t.end(i)
	return p.dd.AnswerBatchDegraded(qs, par)
}

type batcherPart struct {
	db   store.DegradableBatcher
	t    *tracer
	name string
}

func (p batcherPart) AnswerBatchDegradable(ctx context.Context, qs [][]byte, par int) ([]bool, int, error) {
	i := p.t.begin(p.name)
	defer p.t.end(i)
	return p.db.AnswerBatchDegradable(ctx, qs, par)
}

type retrierPart struct{ pr store.PrepareRetrier }

func (p retrierPart) RetryPrepare() error { return p.pr.RetryPrepare() }

type deltaPart struct{ dd store.DeltaDataset }

func (p deltaPart) ApplyDeltas(ctx context.Context, inc *core.IncrementalScheme, deltas [][]byte, med *store.Medium) (uint64, error) {
	return p.dd.ApplyDeltas(ctx, inc, deltas, med)
}

// wrapDataset returns ds with a span named name around each answer call.
// Every dataset the server answers through is a ContextAnswerer; the other
// optional interfaces are forwarded exactly when ds implements them. The
// interface sets of the datasets the benchmark wraps are listed; any other
// set is an error, so a new dataset type cannot be measured on a path the
// server would not take.
func wrapDataset(ds store.Dataset, t *tracer, name string) (store.Dataset, error) {
	ca, ok := ds.(store.ContextAnswerer)
	if !ok {
		return nil, fmt.Errorf("trace: %T is not a store.ContextAnswerer", ds)
	}
	b := &tracedDataset{Dataset: ds, ca: ca, t: t, name: name}
	dg, hasDg := ds.(store.DegradedDataset)
	db, hasDb := ds.(store.DegradableBatcher)
	pr, hasPr := ds.(store.PrepareRetrier)
	dd, hasDd := ds.(store.DeltaDataset)
	g := degradedPart{dg, t, name}
	r := retrierPart{pr}
	d := deltaPart{dd}
	switch {
	case hasDg && hasDb && hasPr && hasDd: // *store.Store
		return struct {
			*tracedDataset
			degradedPart
			batcherPart
			retrierPart
			deltaPart
		}{b, g, batcherPart{db, t, name}, r, d}, nil
	case !hasDg && !hasDb && hasPr && hasDd: // *shard.ShardedStore
		return struct {
			*tracedDataset
			retrierPart
			deltaPart
		}{b, r, d}, nil
	case hasDg && !hasDb && hasPr && !hasDd: // the answer cache's front
		return struct {
			*tracedDataset
			degradedPart
			retrierPart
		}{b, g, r}, nil
	}
	return nil, fmt.Errorf("trace: no wrapper for the optional interfaces of %T", ds)
}
