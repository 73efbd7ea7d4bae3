package collector

import (
	"math/rand"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/oracle"
	"foces/internal/topo"
)

func TestCollectCountersTolerant(t *testing.T) {
	top, err := topo.ByName("fattree4")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, network, err := controller.Bootstrap(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	if _, err := network.Run(rng, dataplane.UniformTraffic(top, 500)); err != nil {
		t.Fatal(err)
	}

	// Kill one switch's control connection: the poll must survive.
	var dead topo.SwitchID = 3
	if err := h.Clients[dead].Close(); err != nil {
		t.Fatal(err)
	}
	counters, missing, err := h.Collector.CollectCountersTolerant()
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != dead {
		t.Fatalf("missing = %v, want [%d]", missing, dead)
	}
	for _, r := range f.Rules {
		_, ok := counters[r.ID]
		if r.Switch == dead && ok {
			t.Fatalf("dead switch's rule %d present", r.ID)
		}
		if r.Switch != dead && !ok {
			t.Fatalf("live switch's rule %d missing", r.ID)
		}
	}

	// And the degraded poll, with the dead switch's rows masked, stays
	// clean.
	res, _, err := oracle.Detect(f.H, f.CounterVector(counters), oracle.SwitchRows(f, missing), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("degraded clean poll flagged: AI=%v", res.Index)
	}
}

func TestCollectCountersTolerantAllDead(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range h.Clients {
		c.Close()
	}
	defer h.Close()
	if _, _, err := h.Collector.CollectCountersTolerant(); err == nil {
		t.Fatal("all-dead poll must error")
	}
}
