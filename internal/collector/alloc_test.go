// Collection-plane allocation budgets. Excluded under the race
// detector, whose instrumentation inflates MemStats allocation counts.

//go:build !race

package collector

import (
	"context"
	"runtime"
	"testing"

	"foces/internal/openflow"
	"foces/internal/topo"
)

// prebuiltSwitch is a StatsClient that hands out the same reply every
// time, so a round's allocations are the collector's own.
type prebuiltSwitch struct{ reply *openflow.FlowStatsReply }

func (p prebuiltSwitch) FlowStatsContext(context.Context) (*openflow.FlowStatsReply, error) {
	return p.reply, nil
}
func (p prebuiltSwitch) EchoContext(context.Context) error { return nil }

// pollSnapshotsAllocs measures one steady-state PollSnapshots round
// over n healthy switches of 56 rules each.
func pollSnapshotsAllocs(t *testing.T, n int) float64 {
	t.Helper()
	clients := make(map[topo.SwitchID]StatsClient, n)
	for sw := 0; sw < n; sw++ {
		r := &openflow.FlowStatsReply{Switch: topo.SwitchID(sw)}
		for i := 0; i < 56; i++ {
			r.Stats = append(r.Stats, openflow.FlowStat{RuleID: sw*56 + i, Packets: uint64(i)})
		}
		clients[topo.SwitchID(sw)] = prebuiltSwitch{r}
	}
	rc := NewRobustFromStats(clients, RobustConfig{})
	ctx := context.Background()
	return testing.AllocsPerRun(50, func() {
		res, err := rc.PollSnapshots(ctx, nil)
		if err != nil || len(res.Snapshots) != n {
			t.Fatalf("round: %d snapshots, err %v", len(res.Snapshots), err)
		}
	})
}

// TestPollSnapshotsAllocs: a clean round allocates the one deadline
// context its first attempts share (context, timer, Done channel, cancel
// closure) and nothing per switch — no goroutine closure, outcome,
// jitter source, per-request context or snapshot map.
func TestPollSnapshotsAllocs(t *testing.T) {
	small, large := pollSnapshotsAllocs(t, 8), pollSnapshotsAllocs(t, 32)
	if small > 6 {
		t.Errorf("PollSnapshots over 8 switches allocated %.1f times per round; want <= 6", small)
	}
	if large != small {
		t.Errorf("PollSnapshots allocations grow with the switch count: %.1f over 8 switches, %.1f over 32", small, large)
	}
}

// TestPushCompleteReleaseAllocs: once the snapshot stores and the window
// store circulate, pushing a window's worth of snapshots, completing the
// window and releasing it allocates nothing, however the pusher treats
// its own maps.
func TestPushCompleteReleaseAllocs(t *testing.T) {
	const switches, rules = 8, 56
	order := make([]topo.SwitchID, switches)
	maps := make([]map[int]uint64, switches)
	for sw := range order {
		order[sw] = topo.SwitchID(sw)
		maps[sw] = make(map[int]uint64, rules)
		for i := 0; i < rules; i++ {
			maps[sw][sw*rules+i] = 0
		}
	}
	asm := NewWindowAssembler(order, StreamConfig{RuleSpace: switches * rules})
	defer asm.Close()
	window := func() {
		for sw, m := range maps {
			for rid := range m {
				m[rid] += 3 // the pusher reuses its map, as the collector does
			}
			if err := asm.Push(Update{Switch: topo.SwitchID(sw), Counters: m}); err != nil {
				t.Fatal(err)
			}
		}
		w := <-asm.Windows()
		w.Release()
	}
	window() // prime
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Errorf("push x%d + completion + release allocated %.1f times per window; want 0", switches, allocs)
	}
	// Released stores wait on the assembler's own free list, which no
	// garbage collection empties. Two collections between windows would
	// drop a sync.Pool's entries and its victim cache alike; what the
	// collections allocate on their own (the runtime's cleanup of the
	// unique package's maps) is measured and set aside.
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	gcAllocs := testing.AllocsPerRun(20, collect)
	if allocs := testing.AllocsPerRun(20, func() {
		collect()
		window()
	}); allocs != gcAllocs {
		t.Errorf("with two collections before each window, push + completion + release allocated %.1f times per window beyond the collections' own %.1f; want 0", allocs-gcAllocs, gcAllocs)
	}
}
