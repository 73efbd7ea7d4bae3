package collector

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/openflow"
	"foces/internal/topo"
)

// serveStats runs a minimal scripted switch on the far end of a pipe:
// the n-th flow-stats request is answered with flows, every packet
// count multiplied by n (cumulative counters that grow), XIDs echoed.
// It stops when the pipe closes.
func serveStats(raw net.Conn, sw topo.SwitchID, flows []openflow.FlowStat) {
	go func() {
		conn := openflow.NewConn(raw)
		for n := uint64(1); ; {
			msg, err := conn.Read()
			if err != nil {
				return
			}
			if msg.Type != openflow.TypeFlowStatsRequest {
				continue
			}
			stats := make([]openflow.FlowStat, len(flows))
			for i, f := range flows {
				stats[i] = openflow.FlowStat{RuleID: f.RuleID, Packets: f.Packets * n}
			}
			n++
			reply := openflow.Message{Type: openflow.TypeFlowStatsReply, XID: msg.XID,
				Payload: &openflow.FlowStatsReply{Switch: sw, Stats: stats}}
			if err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
}

// scriptedClient returns a real openflow.Client wired to a scripted
// switch.
func scriptedClient(t *testing.T, sw topo.SwitchID, flows []openflow.FlowStat) StatsClient {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	serveStats(serverEnd, sw, flows)
	client := openflow.NewClient(clientEnd, time.Second)
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func TestCollectCountersDuplicateRule(t *testing.T) {
	// Both switches claim rule 7 — a compromised switch shadowing
	// another's counters, over the real control channel. The assembled
	// window must report the rule and keep the lowest switch ID's delta.
	rc := newTestCollector(map[topo.SwitchID]StatsClient{
		1: scriptedClient(t, 1, []openflow.FlowStat{{RuleID: 7, Packets: 100}}),
		2: scriptedClient(t, 2, []openflow.FlowStat{{RuleID: 7, Packets: 999}, {RuleID: 8, Packets: 5}}),
	}, RobustConfig{})
	p := newPipeline(rc)
	p.round(t) // prime
	w := p.round(t)
	if !reflect.DeepEqual(w.DuplicateRules, []int{7}) {
		t.Fatalf("duplicates = %v, want [7]", w.DuplicateRules)
	}
	if w.Deltas[7] != 100 {
		t.Fatalf("rule 7 = %d, want lowest switch's 100", w.Deltas[7])
	}
	if w.Deltas[8] != 5 {
		t.Fatalf("rule 8 = %d, want 5", w.Deltas[8])
	}
}

func TestCollectCountersDeterministicErrorAndPartialResults(t *testing.T) {
	// Switches 3 and 9 are dead. Every run must report exactly them as
	// failed, in ascending order, and return the healthy switches'
	// counters alongside.
	for run := 0; run < 5; run++ {
		clients := map[topo.SwitchID]StatsClient{
			2: scriptedClient(t, 2, []openflow.FlowStat{{RuleID: 1, Packets: 11}}),
			5: scriptedClient(t, 5, []openflow.FlowStat{{RuleID: 2, Packets: 22}}),
		}
		for _, dead := range []topo.SwitchID{9, 3} {
			_, clientEnd := net.Pipe()
			c := openflow.NewClient(clientEnd, time.Second)
			_ = c.Close()
			clients[dead] = c
		}
		res, err := newTestCollector(clients, RobustConfig{}).PollSnapshots(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Failed, []topo.SwitchID{3, 9}) {
			t.Fatalf("run %d: failed = %v, want [3 9]", run, res.Failed)
		}
		if res.Snapshots[2][1] != 11 || res.Snapshots[5][2] != 22 {
			t.Fatalf("run %d: healthy counters discarded: %v", run, res.Snapshots)
		}
	}
}

func TestWireReactiveChannelCountsInstallErrors(t *testing.T) {
	// Switch 1's control channel dies before the first miss. The
	// reactive handler's network-wide install then partially fails; that
	// failure used to be silently discarded — it must be counted.
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	_, chStats, err := WireReactiveChannel(network, h, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Clients[1].Close()

	rng := rand.New(rand.NewSource(4))
	// The run itself may fail (switch 1 cannot raise its own misses any
	// more); what matters is that the failed installs were counted.
	_, _ = network.Run(rng, dataplane.UniformTraffic(top, 5))
	if chStats.InstallErrors() == 0 {
		t.Fatal("failed FlowMod installs were not counted")
	}
}
