package collector

import (
	"math/rand"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/topo"
)

func TestWireReactiveEndToEnd(t *testing.T) {
	// Full reactive pipeline over the control channel: an empty data
	// plane fills itself with rules as traffic arrives (packet-in ->
	// controller -> FlowMods), then FOCES validates the result.
	top, err := topo.ByName("bcube14")
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
	installer, err := WireReactive(network, h, ctrl)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	tm := dataplane.UniformTraffic(top, 50)
	sum, err := network.Run(rng, tm)
	if err != nil {
		t.Fatal(err)
	}
	tot := sum.Totals()
	if tot.Delivered != tot.Offered {
		t.Fatalf("reactive channel install must deliver everything: %+v", tot)
	}
	if installer.InstalledPairs() != 240 {
		t.Fatalf("installed pairs = %d", installer.InstalledPairs())
	}

	// Counters collected over the channel must fit the FCM generated
	// from the reactively-accumulated intent.
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	network.ResetCounters()
	if _, err := network.Run(rng, tm); err != nil {
		t.Fatal(err)
	}
	counters := collectCounters(t, h)
	res, err := core.Detect(f.H, f.CounterVector(counters), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("clean reactive network flagged: AI=%v", res.Index)
	}
}

func TestWireReactiveRejectsAggregateMode(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.DestAggregate)
	if err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := WireReactive(network, h, ctrl); err == nil {
		t.Fatal("aggregate mode must be rejected")
	}
}
