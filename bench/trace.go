package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"foces/internal/collector"
	"foces/internal/openflow"
)

// tracer keeps one run's spans in memory; nothing is written until the
// run ends. Times are nanoseconds since the tracer was made. A nil
// tracer records nothing, so call sites need no guard.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records a span and returns its index, the parent of its children.
func (t *tracer) add(name string, window, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Window: window, Parent: parent, StartNS: t.ns(start), EndNS: t.ns(end)})
	return len(t.spans) - 1
}

// addWithin records a span reconstructed from a duration the program
// reported rather than from two clock readings of ours, clamped into
// its parent so self times stay non-negative.
func (t *tracer) addWithin(name string, window, parent int, start time.Time, d time.Duration) time.Time {
	end := start.Add(d)
	if t == nil {
		return end
	}
	p := t.spans[parent]
	s, e := t.ns(start), t.ns(end)
	if s < p.StartNS {
		s = p.StartNS
	}
	if e > p.EndNS {
		e = p.EndNS
	}
	if e < s {
		e = s
	}
	t.spans = append(t.spans, span{Name: name, Window: window, Parent: parent, StartNS: s, EndNS: e})
	return end
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Spans      []span `json:"spans"`
}

func (t *tracer) write(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f.Spans = t.spans
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// timedStats is the collector.StatsClient handed to the robust
// collector in a traced run: it times each flow-stats round trip from
// outside the openflow package. The collector polls switches
// concurrently, so every switch owns one of these.
type timedStats struct {
	inner *openflow.Client
	on    *atomic.Bool

	mu    sync.Mutex
	calls [][2]time.Time
}

var _ collector.StatsClient = (*timedStats)(nil)

func (c *timedStats) FlowStatsContext(ctx context.Context) (*openflow.FlowStatsReply, error) {
	if !c.on.Load() {
		return c.inner.FlowStatsContext(ctx)
	}
	start := time.Now()
	reply, err := c.inner.FlowStatsContext(ctx)
	end := time.Now()
	c.mu.Lock()
	c.calls = append(c.calls, [2]time.Time{start, end})
	c.mu.Unlock()
	return reply, err
}

func (c *timedStats) EchoContext(ctx context.Context) error { return c.inner.EchoContext(ctx) }

// drain hands the calls recorded since the last drain to fn.
func (c *timedStats) drain(fn func(start, end time.Time)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, call := range c.calls {
		fn(call[0], call[1])
	}
	c.calls = c.calls[:0]
}
