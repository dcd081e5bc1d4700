package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pitract/internal/core"
	"pitract/internal/shard"
	"pitract/internal/store"
)

// countingFS forwards to the real disk and counts what the persistence
// layer does: bytes written, fsyncs, and the time spent in file calls,
// split between delta-log appends (files opened for appending) and
// everything else (atomic snapshot and checkpoint writes).
type countingFS struct {
	store.FS
	bytes, syncs   atomic.Int64
	logNs, otherNs atomic.Int64
}

func (c *countingFS) timed(log bool, start time.Time) {
	if log {
		c.logNs.Add(time.Since(start).Nanoseconds())
	} else {
		c.otherNs.Add(time.Since(start).Nanoseconds())
	}
}

func (c *countingFS) CreateTemp(dir, pattern string) (store.File, error) {
	defer c.timed(false, time.Now())
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenAppend(name string) (store.File, error) {
	defer c.timed(true, time.Now())
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, log: true}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.timed(false, time.Now())
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(name string) error {
	defer c.timed(false, time.Now())
	c.syncs.Add(1)
	return c.FS.SyncDir(name)
}

type countingFile struct {
	store.File
	fs  *countingFS
	log bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	defer f.fs.timed(f.log, time.Now())
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.fs.timed(f.log, time.Now())
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	defer f.fs.timed(f.log, time.Now())
	return f.File.Close()
}

// timedScheme returns a copy of sc whose Preprocess adds its duration to
// *ns, so registration time can be split into preprocessing and the rest.
func timedScheme(sc *core.Scheme, ns *atomic.Int64) *core.Scheme {
	cp := *sc
	cp.Preprocess = func(d []byte) ([]byte, error) {
		defer func(t time.Time) { ns.Add(time.Since(t).Nanoseconds()) }(time.Now())
		return sc.Preprocess(d)
	}
	return &cp
}

// shardProbe measures one sharded answer call from outside the shard
// package: the fan-out section runs from the call's start to the first
// Merge, the merge section from there to the call's end. Probes are the
// follow-up local queries Merge sends to shards.
type shardProbe struct {
	mu         sync.Mutex
	firstMerge time.Time
	probes     atomic.Int64
}

// wrapSharding returns a copy of sh whose Merge records into p.
func wrapSharding(sh *shard.Sharding, p *shardProbe) *shard.Sharding {
	cp := *sh
	merge := sh.Merge
	cp.Merge = func(q []byte, verdicts []bool, asn shard.Assignment, summary interface{}, probe shard.Probe) (bool, error) {
		now := time.Now()
		p.mu.Lock()
		if p.firstMerge.IsZero() || now.Before(p.firstMerge) {
			p.firstMerge = now
		}
		p.mu.Unlock()
		counted := func(shardIdx int, local []byte) (bool, error) {
			p.probes.Add(1)
			return probe(shardIdx, local)
		}
		if merge == nil {
			for _, v := range verdicts {
				if v {
					return true, nil
				}
			}
			return false, nil
		}
		return merge(q, verdicts, asn, summary, counted)
	}
	return &cp
}

// take returns and clears the first Merge time of the last call.
func (p *shardProbe) take() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.firstMerge
	p.firstMerge = time.Time{}
	return t
}
