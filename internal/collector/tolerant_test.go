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

// TestPipelineToleratesDeadSwitch: a switch whose control channel died
// goes missing from the window; the others' deltas are all there, and
// detection with its rows masked stays clean.
func TestPipelineToleratesDeadSwitch(t *testing.T) {
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
	p := newPipeline(NewRobust(h.Clients, RobustConfig{Attempts: 1}))
	p.round(t) // prime
	rng := rand.New(rand.NewSource(1))
	if _, err := network.Run(rng, dataplane.UniformTraffic(top, 500)); err != nil {
		t.Fatal(err)
	}

	// Kill one switch's control connection: the window must survive.
	var dead topo.SwitchID = 3
	if err := h.Clients[dead].Close(); err != nil {
		t.Fatal(err)
	}
	w := p.round(t)
	counters, missing := w.Deltas, w.Missing
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

// TestPipelineAllSwitchesDead: with every channel dead the window
// carries no counters (Serve skips it) and misses every switch.
func TestPipelineAllSwitchesDead(t *testing.T) {
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
	w := newPipeline(NewRobust(h.Clients, RobustConfig{Attempts: 1})).round(t)
	if len(w.Deltas) != 0 || len(w.Missing) != len(h.Clients) {
		t.Fatalf("all-dead window must carry no counters and miss every switch: %+v", w.Window)
	}
}
