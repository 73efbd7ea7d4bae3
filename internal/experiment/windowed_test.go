package experiment

import (
	"testing"

	"foces/internal/core"
	"foces/internal/oracle"
)

func TestObserveWindowedResetIsMissingNotAnomalous(t *testing.T) {
	env, err := NewEnv(Config{Topology: "fattree4", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	numSwitches := len(env.Topo.Switches())

	// Period 1 only primes the delta baselines: every switch is missing.
	_, missing, err := env.ObserveWindowed(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != numSwitches {
		t.Fatalf("priming period: %d missing, want all %d", len(missing), numSwitches)
	}

	// Period 2: clean one-period deltas, full detection, no alarm.
	y, missing, err := env.ObserveWindowed(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("steady state missing = %v", missing)
	}
	res, err := env.Detector.Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("clean windowed period flagged: AI=%v", res.Index)
	}

	// A switch reboots mid-run and zeroes its counters. The delta layer
	// must flag exactly that switch as missing — not feed a garbage
	// window into HX=Y and raise a false alarm.
	victim := env.Topo.Switches()[2].ID
	if err := env.ResetSwitch(victim); err != nil {
		t.Fatal(err)
	}
	y, missing, err = env.ObserveWindowed(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != victim {
		t.Fatalf("reset period missing = %v, want [%d]", missing, victim)
	}
	partial, _, err := oracle.Detect(env.FCM.H, y, oracle.SwitchRows(env.FCM, missing), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Anomalous {
		t.Fatalf("counter reset raised a false alarm: AI=%v", partial.Index)
	}

	// The reset re-baselined the victim, so the next period is whole
	// again.
	y, missing, err = env.ObserveWindowed(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("post-reset missing = %v", missing)
	}
	res, err = env.Detector.Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("post-reset period flagged: AI=%v", res.Index)
	}
}
