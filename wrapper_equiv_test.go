package foces_test

import (
	"fmt"
	"math/rand"
	"testing"

	"foces"
)

// The deprecated Detect* wrappers are contractually one-line shims
// over Run: for every window kind they cover, the wrapper's return value must
// byte-equal the corresponding field of the Run(Observation) report,
// and — because the wrappers route through Run — every wrapper call
// must land in the telemetry verdict ring exactly like a direct Run,
// so focesd /status can never miss a wrapper-path verdict.

// repr renders an engine outcome for byte-level comparison. %#v walks
// every exported field (engine outcomes are plain data) and — unlike
// JSON — represents the +Inf anomaly index an attacked window can
// produce.
func repr(v any) string { return fmt.Sprintf("%#v", v) }

func TestWrappersByteEqualRun(t *testing.T) {
	type scenario struct {
		name   string
		attack bool
	}
	for _, sc := range []scenario{{"clean", false}, {"attacked", true}} {
		t.Run(sc.name, func(t *testing.T) {
			sys := newSystem(t, "fattree4", foces.PairExact)
			sys.EnableTelemetry(foces.NewTelemetryRegistry())
			rng := rand.New(rand.NewSource(31))
			if sc.attack {
				if _, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap); err != nil {
					t.Fatal(err)
				}
			}
			y, err := sys.ObserveCounters(rng, 1000)
			if err != nil {
				t.Fatal(err)
			}

			type equiv struct {
				name    string
				wrapper func() (any, error)
				run     func() (any, error)
			}
			cases := []equiv{
				{
					name: "Detect",
					wrapper: func() (any, error) {
						r, err := sys.Detect(y, foces.DetectOptions{})
						return r, err
					},
					run: func() (any, error) {
						rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch(), Mode: foces.ModeFull}})
						if err != nil {
							return nil, err
						}
						return *rep.Full, nil
					},
				},
				{
					name: "DetectSliced",
					wrapper: func() (any, error) {
						r, err := sys.DetectSliced(y, foces.DetectOptions{})
						return r, err
					},
					run: func() (any, error) {
						rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch(), Mode: foces.ModeSliced}})
						if err != nil {
							return nil, err
						}
						return *rep.Sliced, nil
					},
				},
			}
			for _, c := range cases {
				ringBefore := len(sys.RecentRuns())
				w, err := c.wrapper()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got := len(sys.RecentRuns()); got != ringBefore+1 {
					t.Fatalf("%s bypassed the verdict ring: %d events before, %d after", c.name, ringBefore, got)
				}
				r, err := c.run()
				if err != nil {
					t.Fatalf("%s (run): %v", c.name, err)
				}
				if wb, rb := repr(w), repr(r); wb != rb {
					t.Fatalf("%s diverged from Run:\nwrapper: %s\nrun:     %s", c.name, wb, rb)
				}
			}
		})
	}
}

// DetectReconciled needs churn between the snapshot and the call, so
// it gets its own scenario rather than a row above.
func TestDetectReconciledByteEqualsRun(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	sys.EnableTelemetry(foces.NewTelemetryRegistry())
	rng := rand.New(rand.NewSource(33))
	yOld, err := sys.ObserveCounters(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	var victim foces.Rule
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = sys.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if _, err := sys.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	ringBefore := len(sys.RecentRuns())
	legacy, err := sys.DetectReconciled(yOld, from)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.RecentRuns()); got != ringBefore+1 {
		t.Fatalf("DetectReconciled bypassed the verdict ring: %d events before, %d after", ringBefore, got)
	}
	// The wrapper pads a legitimately short pre-churn vector; mirror it.
	y := yOld
	if space := sys.FCM().NumRules(); len(y) < space {
		padded := make([]float64, space)
		copy(padded, y)
		y = padded
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: from, Mode: foces.ModeSliced}})
	if err != nil {
		t.Fatal(err)
	}
	if wb, rb := repr(legacy), repr(*rep.Sliced); wb != rb {
		t.Fatalf("DetectReconciled diverged from Run:\nwrapper: %s\nrun:     %s", wb, rb)
	}
}
