package collector

import (
	"context"
	"math/rand"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/topo"
)

var layout = header.FiveTuple()

// collectCounters fetches every switch's cumulative rule counters over
// the harness's control channel in one PollSnapshots round and merges
// them by rule ID.
func collectCounters(t *testing.T, h *Harness) map[int]uint64 {
	t.Helper()
	res, err := NewRobust(h.Clients, RobustConfig{Attempts: 1}).PollSnapshots(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("switches %v failed the poll", res.Failed)
	}
	out := make(map[int]uint64)
	for _, counters := range res.Snapshots {
		for rid, v := range counters {
			out[rid] = v
		}
	}
	return out
}

func TestHarnessCollectMatchesDirect(t *testing.T) {
	top, err := topo.ByName("fattree4")
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
	rng := rand.New(rand.NewSource(1))
	if _, err := network.Run(rng, dataplane.UniformTraffic(top, 100)); err != nil {
		t.Fatal(err)
	}
	viaChannel := collectCounters(t, h)
	direct := network.CollectCounters()
	if len(viaChannel) != len(direct) {
		t.Fatalf("channel %d counters, direct %d", len(viaChannel), len(direct))
	}
	for id, v := range direct {
		if viaChannel[id] != v {
			t.Fatalf("rule %d: channel %d direct %d", id, viaChannel[id], v)
		}
	}
}

func TestHarnessPortStatsMatchDirect(t *testing.T) {
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
	rng := rand.New(rand.NewSource(2))
	if _, err := network.Run(rng, dataplane.UniformTraffic(top, 50)); err != nil {
		t.Fatal(err)
	}
	for sw, want := range network.PortStats() {
		reply, err := h.Clients[sw].PortStats()
		if err != nil {
			t.Fatalf("switch %d: %v", sw, err)
		}
		var rx, tx uint64
		for _, ps := range reply.Stats {
			rx += ps.Rx
			tx += ps.Tx
		}
		if rx != want.RxTotal() || tx != want.TxTotal() {
			t.Fatalf("switch %d: got rx=%d tx=%d want rx=%d tx=%d",
				sw, rx, tx, want.RxTotal(), want.TxTotal())
		}
	}
}

func TestInstallRulesViaChannel(t *testing.T) {
	// Full control-channel bootstrap: compute rules, push them through
	// FlowMods, run traffic, collect counters, detect cleanly.
	top, err := topo.Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := InstallRules(h.Clients, ctrl.Rules()); err != nil {
		t.Fatal(err)
	}
	if network.RuleCount() != ctrl.NumRules() {
		t.Fatalf("installed %d rules, want %d", network.RuleCount(), ctrl.NumRules())
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := network.Run(rng, dataplane.UniformTraffic(top, 200)); err != nil {
		t.Fatal(err)
	}
	counters := collectCounters(t, h)
	res, err := core.Detect(f.H, f.CounterVector(counters), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("clean channel-driven network flagged: AI=%v", res.Index)
	}
}

func TestInstallRulesUnknownSwitch(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	if err := InstallRules(nil, ctrl.Rules()); err == nil {
		t.Fatal("missing clients must error")
	}
}

func TestApplyNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	y := []float64{100, 200, 0}
	noisy := ApplyNoise(y, 5, rng)
	if len(noisy) != 3 {
		t.Fatal("length changed")
	}
	same := true
	for i := range y {
		if noisy[i] != y[i] {
			same = false
		}
		if noisy[i] < 0 {
			t.Fatal("noise must clamp at zero")
		}
	}
	if same {
		t.Fatal("noise had no effect")
	}
	// Sigma zero must be the identity.
	clean := ApplyNoise(y, 0, rng)
	for i := range y {
		if clean[i] != y[i] {
			t.Fatal("zero sigma must not change counters")
		}
	}
	// Original must be untouched.
	if y[0] != 100 || y[1] != 200 || y[2] != 0 {
		t.Fatal("input mutated")
	}
}

func TestCollectAfterClose(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	res, err := NewRobust(h.Clients, RobustConfig{Attempts: 1}).PollSnapshots(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != len(h.Clients) || len(res.Snapshots) != 0 {
		t.Fatalf("collect after close must fail every switch: %+v", res)
	}
}
