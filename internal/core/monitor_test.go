package core

import (
	"math"
	"testing"
)

func TestMonitorDebouncesSpikes(t *testing.T) {
	m := NewMonitor(MonitorConfig{Consecutive: 2})
	// A single noise spike must not alert.
	v := m.Feed(50)
	if v.Alert || !v.Exceeded || v.Streak != 1 {
		t.Fatalf("first spike: %+v", v)
	}
	v = m.Feed(1)
	if v.Alert || v.Exceeded || v.Streak != 0 {
		t.Fatalf("recovery: %+v", v)
	}
	// Two consecutive exceedances alert.
	m.Feed(50)
	v = m.Feed(60)
	if !v.Alert || v.Streak != 2 {
		t.Fatalf("sustained: %+v", v)
	}
	// The alarm clears when the index drops.
	v = m.Feed(1)
	if v.Alert {
		t.Fatalf("clear: %+v", v)
	}
}

func TestMonitorInfinity(t *testing.T) {
	m := NewMonitor(MonitorConfig{Consecutive: 1})
	v := m.Feed(math.Inf(1))
	if !v.Alert || math.IsInf(v.EWMA, 1) || math.IsNaN(v.EWMA) {
		t.Fatalf("inf handling: %+v", v)
	}
	if v.EWMA != 1e6 {
		t.Fatalf("EWMA cap = %v", v.EWMA)
	}
}

func TestMonitorEWMA(t *testing.T) {
	m := NewMonitor(MonitorConfig{EWMAAlpha: 0.5})
	v := m.Feed(10)
	if v.EWMA != 10 {
		t.Fatalf("priming EWMA = %v", v.EWMA)
	}
	v = m.Feed(0)
	if v.EWMA != 5 {
		t.Fatalf("EWMA = %v, want 5", v.EWMA)
	}
	m.Reset()
	v = m.Feed(2)
	if v.EWMA != 2 || v.Streak != 0 {
		t.Fatalf("after reset: %+v", v)
	}
}

func TestMonitorDefaults(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	// Default threshold 4.5: 4.4 does not exceed.
	if v := m.Feed(4.4); v.Exceeded {
		t.Fatal("4.4 must not exceed default threshold")
	}
	if v := m.Feed(4.6); !v.Exceeded || v.Alert {
		t.Fatal("default consecutive=2 must not alert on one period")
	}
	if v := m.Feed(4.6); !v.Alert {
		t.Fatal("two consecutive exceedances must alert")
	}
}

func TestMonitorSuppressesLossFalsePositives(t *testing.T) {
	// Under heavy loss the per-period index occasionally spikes; the
	// debounced monitor only alerts on sustained anomalies. Simulate
	// index streams directly.
	m := NewMonitor(MonitorConfig{Consecutive: 3})
	noisy := []float64{2, 7, 3, 8, 2, 9, 3, 7, 2} // isolated spikes
	for i, idx := range noisy {
		if v := m.Feed(idx); v.Alert {
			t.Fatalf("alerted on isolated spike at %d", i)
		}
	}
	attack := []float64{30, 40, 35}
	var alerted bool
	for _, idx := range attack {
		if v := m.Feed(idx); v.Alert {
			alerted = true
		}
	}
	if !alerted {
		t.Fatal("sustained attack must alert")
	}
}

func TestAttributeDeltaRanksCompromisedNeighbourhood(t *testing.T) {
	f, y, fl := securityBaseline(t)
	// Early-drop flow fl after hop 1: downstream rules lose its volume.
	for _, rid := range fl.RuleIDs[2:] {
		y[rid] -= 1000
	}
	res, err := Detect(f.H, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores := AttributeDelta(f, res.Delta)
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	top := TopSuspects(scores, 3)
	// The flow's own switches must dominate the ranking.
	onPath := map[int]bool{}
	for _, rid := range fl.RuleIDs {
		onPath[int(f.Rules[rid].Switch)] = true
	}
	hit := false
	for _, sw := range top {
		if onPath[int(sw)] {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("top suspects %v miss the victim path", top)
	}
	if got := TopSuspects(scores, 10_000); len(got) != len(scores) {
		t.Fatal("TopSuspects must clamp k")
	}
}

func TestMonitorClampsNegativeConfig(t *testing.T) {
	// Negative values used to slip past the zero-only default checks:
	// a negative threshold always fires, a negative consecutive alerts
	// without debouncing, a negative alpha diverges the EWMA.
	m := NewMonitor(MonitorConfig{Threshold: -3, Consecutive: -1, EWMAAlpha: -0.5})
	if m.cfg.Threshold != 4.5 || m.cfg.Consecutive != 2 || m.cfg.EWMAAlpha != 0.3 {
		t.Fatalf("negative config not clamped: %+v", m.cfg)
	}
	if v := m.Feed(1); v.Exceeded || v.Alert {
		t.Fatalf("quiet index must not fire: %+v", v)
	}
	// Alpha above 1 clamps to plain averaging instead of oscillating.
	m = NewMonitor(MonitorConfig{EWMAAlpha: 2.5})
	if m.cfg.EWMAAlpha != 1 {
		t.Fatalf("alpha > 1 not clamped: %v", m.cfg.EWMAAlpha)
	}
	m.Feed(10)
	if v := m.Feed(4); v.EWMA != 4 {
		t.Fatalf("alpha=1 must track the latest index, EWMA=%v", v.EWMA)
	}
}
