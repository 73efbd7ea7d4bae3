package foces_test

import (
	"math/rand"
	"testing"

	"foces"
)

// End-to-end diagnosis: an attacked window run with a LocalizeConfig
// must come back with a ranked culprit report naming the compromised
// rule, within the probe budget, and the verdict ring must carry the
// localized flag.
func TestRunLocalizesInjectedAttack(t *testing.T) {
	for _, kind := range []foces.AttackKind{foces.AttackPortSwap, foces.AttackDrop} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := newSystem(t, "fattree4", foces.PairExact)
			sys.EnableTelemetry(foces.NewTelemetryRegistry())
			rng := rand.New(rand.NewSource(41))
			atk, err := sys.InjectRandomAttack(rng, kind)
			if err != nil {
				t.Fatal(err)
			}
			y, err := sys.ObserveCounters(rng, 1000)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Localize: &foces.LocalizeConfig{Seed: 41}}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Anomalous {
				t.Fatalf("attack not even detected: %+v", rep)
			}
			loc := rep.Localization
			if loc == nil {
				t.Fatal("anomalous localizing run carries no Localization")
			}
			if loc.Error != "" {
				t.Fatalf("localization failed: %s", loc.Error)
			}
			top, ok := loc.TopCulprit()
			if !ok || !loc.Localized {
				t.Fatalf("attack not localized: %+v", loc.Outcome)
			}
			if top.RuleID != atk.RuleID || top.Switch != atk.Switch {
				t.Fatalf("accused rule %d on switch %v, want rule %d on switch %v",
					top.RuleID, top.Switch, atk.RuleID, atk.Switch)
			}
			if loc.ProbesUsed > loc.ProbeBudget {
				t.Fatalf("spent %d probes over budget %d", loc.ProbesUsed, loc.ProbeBudget)
			}
			if rep.Timings.Localize <= 0 {
				t.Fatal("Timings.Localize not recorded")
			}
			events := sys.RecentRuns()
			if last := events[len(events)-1]; !last.Localized {
				t.Fatalf("verdict ring missed the localization: %+v", last)
			}
		})
	}
}

// A clean window with localization enabled must not probe: the config
// is an opt-in for anomalous verdicts only.
func TestRunSkipsLocalizationWhenClean(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(43))
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Localize: &foces.LocalizeConfig{}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Anomalous {
		t.Fatalf("clean network flagged: %+v", rep)
	}
	if rep.Localization != nil || rep.Timings.Localize != 0 {
		t.Fatalf("clean run probed anyway: %+v", rep.Localization)
	}
}

// Without a LocalizeConfig the detection path is untouched — no
// Localization block, no localize timing, even on anomalous windows.
func TestRunWithoutLocalizeConfigIsDetectionOnly(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(44))
	if _, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap); err != nil {
		t.Fatal(err)
	}
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: y})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Anomalous {
		t.Fatal("attack not detected")
	}
	if rep.Localization != nil || rep.Timings.Localize != 0 {
		t.Fatalf("nil LocalizeConfig still probed: %+v", rep.Localization)
	}
}

// Localization follows the verdict whichever engines run: a ModeAuto
// window and a sliced-only window are both localized to the injected
// rule.
func TestRunLocalizesAcrossModes(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(45))
	atk, err := sys.InjectRandomAttack(rng, foces.AttackDrop)
	if err != nil {
		t.Fatal(err)
	}
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &foces.LocalizeConfig{Seed: 45}
	for _, mode := range []foces.Mode{foces.ModeAuto, foces.ModeSliced} {
		rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: mode, Localize: cfg}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Anomalous {
			t.Fatalf("%v: attack not detected", mode)
		}
		loc := rep.Localization
		if loc == nil || !loc.Localized {
			t.Fatalf("%v: not localized: %+v", mode, loc)
		}
		if top, _ := loc.TopCulprit(); top.RuleID != atk.RuleID {
			t.Fatalf("%v: accused rule %d, want %d", mode, top.RuleID, atk.RuleID)
		}
	}
}

// Probe telemetry: a localizing run must move the foces_probe_*
// families.
func TestLocalizationTelemetry(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	reg := foces.NewTelemetryRegistry()
	sys.EnableTelemetry(reg)
	rng := rand.New(rand.NewSource(46))
	if _, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap); err != nil {
		t.Fatal(err)
	}
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Localize: &foces.LocalizeConfig{Seed: 46}}}); err != nil {
		t.Fatal(err)
	}
	var localizations, probes float64
	for _, fam := range reg.Gather() {
		switch fam.Name {
		case "foces_probe_localizations_total":
			for _, s := range fam.Samples {
				localizations += s.Value
			}
		case "foces_probe_probes_total":
			for _, s := range fam.Samples {
				probes += s.Value
			}
		}
	}
	if localizations != 1 {
		t.Fatalf("foces_probe_localizations_total = %v, want 1", localizations)
	}
	if probes < 1 {
		t.Fatalf("foces_probe_probes_total = %v, want >= 1", probes)
	}
}
