package collector

// Who owns which buffer along the collection plane, and for how long:
// flow-stats replies go back to their client once a round has copied
// them; snapshot maps are the collector's and valid until its next
// round; Push copies, so the pusher keeps its map; queues hand their
// storage back instead of pinning it.

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/openflow"
	"foces/internal/topo"
)

// release consumes the next completed window and returns its storage.
func release(t *testing.T, a *WindowAssembler) {
	t.Helper()
	w := nextWindow(t, a)
	w.Release()
}

// countingSwitch answers every poll with cumulative counters that grow
// with its call count.
func countingSwitch(rules ...int) *scripted {
	return &scripted{flow: func(call int, _ context.Context) (*openflow.FlowStatsReply, error) {
		counters := make(map[int]uint64, len(rules))
		for _, rid := range rules {
			counters[rid] = uint64(call * (rid + 1))
		}
		return reply(counters), nil
	}}
}

func TestSnapshotMapsUnchangedUntilNextRound(t *testing.T) {
	rc := newTestCollector(map[topo.SwitchID]StatsClient{
		1: countingSwitch(0, 1, 2),
		2: countingSwitch(3, 4),
		3: countingSwitch(5),
	}, RobustConfig{})
	asm := NewWindowAssembler([]topo.SwitchID{1, 2, 3}, StreamConfig{})
	defer asm.Close()
	ctx := context.Background()

	var prev map[topo.SwitchID]map[int]uint64
	for round := 1; round <= 4; round++ {
		res, err := rc.PollSnapshots(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Snapshots) != 3 || res.Snapshots[2][4] != uint64(round*5) {
			t.Fatalf("round %d snapshots = %v", round, res.Snapshots)
		}
		if prev != nil && reflect.DeepEqual(res.Snapshots, prev) {
			t.Fatalf("round %d repeats round %d's counters", round, round-1)
		}
		held := copySnapshots(res.Snapshots)
		// Everything a pump does between two rounds, and everything else
		// the collector offers, must leave the loaned maps alone.
		for sw, counters := range res.Snapshots {
			push(t, asm, sw, counters)
		}
		release(t, asm)
		_ = rc.Metrics()
		_ = rc.Health()
		_ = rc.Quarantined()
		if !reflect.DeepEqual(res.Snapshots, held) {
			t.Fatalf("round %d: snapshots changed before the next round\n  %v\nwant\n  %v", round, res.Snapshots, held)
		}
		prev = held
	}

	// The next round ends the loan: a due subset
	// leaves only the polled switch in the outer map.
	res, err := rc.PollSnapshots(ctx, []topo.SwitchID{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 1 || res.Snapshots[2][4] != 25 {
		t.Fatalf("subset round snapshots = %v", res.Snapshots)
	}
}

func TestPushCopiesSnapshot(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{QueueCapacity: 2})
	defer a.Close()
	// One map per switch, reused for every push the way the collector
	// reuses its snapshot maps: refilled right after Push returns.
	m1, m2 := map[int]uint64{}, map[int]uint64{}
	pushReusing := func(sw topo.SwitchID, m map[int]uint64, counters map[int]uint64) {
		t.Helper()
		clear(m)
		for rid, v := range counters {
			m[rid] = v
		}
		push(t, a, sw, m)
		clear(m)
		m[999] = 1 << 40 // garbage the window must never see
	}
	pushReusing(1, m1, map[int]uint64{0: 10, 1: 20})
	pushReusing(2, m2, map[int]uint64{2: 5})
	release(t, a) // prime

	// Three pushes into a capacity-2 queue: queued, queued, coalesced.
	pushReusing(1, m1, map[int]uint64{0: 11, 1: 21})
	pushReusing(1, m1, map[int]uint64{0: 13, 1: 24})
	pushReusing(1, m1, map[int]uint64{0: 17, 1: 29})
	pushReusing(2, m2, map[int]uint64{2: 9})
	w := nextWindow(t, a)
	want := map[int]uint64{0: 7, 1: 9, 2: 4}
	if !reflect.DeepEqual(w.Deltas, want) || len(w.Missing) != 0 {
		t.Fatalf("deltas = %v missing = %v, want %v: the window saw the pusher's map change after Push", w.Deltas, w.Missing, want)
	}
}

func TestQueuesHandBackStorage(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	defer a.Close()
	// pinned reports the snapshots still reachable through a queue's
	// backing array beyond its length.
	pinned := func(sw topo.SwitchID) int {
		a.mu.Lock()
		defer a.mu.Unlock()
		q := a.queues[sw]
		n := 0
		for _, snap := range q[len(q):cap(q)] {
			if snap != nil {
				n++
			}
		}
		return n
	}
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 1, map[int]uint64{0: 11})
	push(t, a, 2, map[int]uint64{1: 5})
	release(t, a)
	if n := pinned(1) + pinned(2); n != 0 {
		t.Fatalf("completion left %d consumed snapshots reachable from the queues", n)
	}
	a.mu.Lock()
	spare := len(a.spare)
	a.mu.Unlock()
	if spare != 3 {
		t.Fatalf("%d snapshot stores recycled after completion, want 3", spare)
	}

	push(t, a, 1, map[int]uint64{0: 20})
	push(t, a, 1, map[int]uint64{0: 21})
	a.Forget(1)
	a.mu.Lock()
	q, spare := a.queues[1], len(a.spare)
	a.mu.Unlock()
	if q == nil || len(q) != 0 || cap(q) < 2 {
		t.Fatalf("Forget dropped the queue (len %d cap %d); it must truncate it", len(q), cap(q))
	}
	if n := pinned(1); n != 0 {
		t.Fatalf("Forget left %d forgotten snapshots reachable from the queue", n)
	}
	if spare != 3 {
		t.Fatalf("%d snapshot stores after Forget, want all 3 back", spare)
	}
}

func TestPollSnapshotsConcurrentCallsSerialised(t *testing.T) {
	const switches, callers, roundsEach = 4, 2, 20
	var overlapped atomic.Bool
	clients := make(map[topo.SwitchID]StatsClient, switches)
	for sw := topo.SwitchID(0); sw < switches; sw++ {
		var inFlight atomic.Int32
		prebuilt := reply(map[int]uint64{int(sw): 1})
		clients[sw] = &scripted{flow: func(int, context.Context) (*openflow.FlowStatsReply, error) {
			if inFlight.Add(1) > 1 {
				overlapped.Store(true)
			}
			time.Sleep(100 * time.Microsecond) // widen the window an overlap would need
			inFlight.Add(-1)
			return prebuilt, nil
		}}
	}
	rc := newTestCollector(clients, RobustConfig{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < roundsEach; i++ {
				res, err := rc.PollSnapshots(context.Background(), nil)
				if err != nil {
					t.Error(err)
					return
				}
				// (Reading res.Snapshots here would race with the other
				// caller's next round: that is the loan's contract.)
				if len(res.Failed)+len(res.Skipped) != 0 {
					t.Errorf("round lost switches: failed %v, skipped %v", res.Failed, res.Skipped)
				}
			}
		}()
	}
	wg.Wait()
	if overlapped.Load() {
		t.Fatal("two rounds polled one switch at the same time")
	}
	if m := rc.Metrics(); m.Periods != callers*roundsEach || m.Requests != callers*roundsEach*switches {
		t.Fatalf("metrics = %+v", m)
	}
}

// recordingClient is a real control client that remembers the last
// reply it handed the collector.
type recordingClient struct {
	*openflow.Client
	last *openflow.FlowStatsReply
}

func (c *recordingClient) FlowStatsContext(ctx context.Context) (*openflow.FlowStatsReply, error) {
	r, err := c.Client.FlowStatsContext(ctx)
	c.last = r
	return r, err
}

// TestPollSnapshotsReleasesReplies: the collector hands each switch's
// flow-stats reply back to its client once the round has copied it, so
// the next round's reply is decoded into the same storage, and the
// snapshots still read the switches' live counters.
func TestPollSnapshotsReleasesReplies(t *testing.T) {
	top, err := topo.Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, network, err := controller.Bootstrap(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	recorders := make(map[topo.SwitchID]*recordingClient, len(h.Clients))
	clients := make(map[topo.SwitchID]StatsClient, len(h.Clients))
	for sw, c := range h.Clients {
		recorders[sw] = &recordingClient{Client: c}
		clients[sw] = recorders[sw]
	}
	rc := NewRobustFromStats(clients, RobustConfig{})
	rng := rand.New(rand.NewSource(3))
	prev := make(map[topo.SwitchID]*openflow.FlowStatsReply)
	for round := 0; round < 3; round++ {
		if _, err := network.Run(rng, dataplane.UniformTraffic(top, 50)); err != nil {
			t.Fatal(err)
		}
		res, err := rc.PollSnapshots(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		direct := network.CollectCounters()
		for sw, counters := range res.Snapshots {
			for rid, v := range counters {
				if direct[rid] != v {
					t.Fatalf("round %d switch %d rule %d: snapshot %d, switch %d", round, sw, rid, v, direct[rid])
				}
			}
		}
		for sw, r := range recorders {
			if round > 0 && r.last != prev[sw] {
				t.Errorf("round %d switch %d: reply decoded into fresh storage; the last one was not released", round, sw)
			}
			prev[sw] = r.last
		}
	}
}
