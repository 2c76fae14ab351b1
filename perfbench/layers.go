package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/storage"
)

// timedFile is the traced run's storage probe: a storage.PageFile that
// counts and times every page transfer of the file it wraps. Allocate is
// counted as a write because page files write the zeroed page.
type timedFile struct {
	storage.PageFile
	reads, readNs, writes, writeNs atomic.Int64
}

// fileCounters is a snapshot of a timedFile's counters.
type fileCounters struct{ reads, readNs, writes, writeNs int64 }

func (f *timedFile) ReadPage(id storage.PageID, buf []byte) error {
	t := time.Now()
	err := f.PageFile.ReadPage(id, buf)
	f.readNs.Add(int64(time.Since(t)))
	f.reads.Add(1)
	return err
}

func (f *timedFile) WritePage(id storage.PageID, buf []byte) error {
	t := time.Now()
	err := f.PageFile.WritePage(id, buf)
	f.writeNs.Add(int64(time.Since(t)))
	f.writes.Add(1)
	return err
}

func (f *timedFile) Allocate() (storage.PageID, error) {
	t := time.Now()
	id, err := f.PageFile.Allocate()
	f.writeNs.Add(int64(time.Since(t)))
	f.writes.Add(1)
	return id, err
}

func (f *timedFile) counters() fileCounters {
	return fileCounters{f.reads.Load(), f.readNs.Load(), f.writes.Load(), f.writeNs.Load()}
}

func (c fileCounters) plus(o fileCounters) fileCounters {
	return fileCounters{c.reads + o.reads, c.readNs + o.readNs, c.writes + o.writes, c.writeNs + o.writeNs}
}

func (c fileCounters) minus(o fileCounters) fileCounters {
	return fileCounters{c.reads - o.reads, c.readNs - o.readNs, c.writes - o.writes, c.writeNs - o.writeNs}
}

// timedTransport is the traced run's shard probe: it runs every shard-pair
// join through the wrapped transport and records when each one ran.
type timedTransport struct {
	inner shard.Transport
	epoch time.Time

	mu    sync.Mutex
	spans []interval
}

func (t *timedTransport) Join(ctx context.Context, tc obs.TraceContext, a, b *rtree.Tree, k int, opts core.Options) (shard.JoinResult, error) {
	start := time.Since(t.epoch)
	res, err := t.inner.Join(ctx, tc, a, b, k, opts)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, interval{start, end})
	t.mu.Unlock()
	return res, err
}

func (t *timedTransport) String() string { return "timed-" + t.inner.String() }

// take returns the join spans recorded since the last call.
func (t *timedTransport) take() []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}
