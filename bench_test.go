// Benchmarks mirroring the paper's evaluation artifacts: one benchmark
// per table/figure (Table I, Figs 7-12) plus ablations for the design
// choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package foces_test

import (
	"math/rand"
	"sync"
	"testing"

	"foces"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/experiment"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/stats"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// benchEnv lazily builds and caches experiment environments so
// sub-benchmarks share setup.
var benchEnvs sync.Map

func getEnv(b *testing.B, cfg experiment.Config) *experiment.Env {
	b.Helper()
	key := cfg
	if v, ok := benchEnvs.Load(key); ok {
		return v.(*experiment.Env)
	}
	env, err := experiment.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs.Store(key, env)
	return env
}

// BenchmarkTableI measures the full pipeline build (topology ->
// controller rules -> data plane -> FCM -> slices) per evaluation
// topology.
func BenchmarkTableI(b *testing.B) {
	for _, name := range topo.EvaluationTopologies() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := experiment.NewEnv(experiment.Config{Topology: name, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if env.FCM.NumFlows() == 0 {
					b.Fatal("no flows")
				}
			}
		})
	}
}

// BenchmarkFig7_FunctionalDetect measures one Fig. 7 detection period
// on BCube(1,4): simulate an interval of traffic, collect counters,
// solve the equation system and score the anomaly index.
func BenchmarkFig7_FunctionalDetect(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "bcube14", Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Score(0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_ROC measures one positive/negative ROC sample pair
// (the unit of work Fig. 8 repeats hundreds of times).
func BenchmarkFig8_ROC(b *testing.B) {
	for _, name := range topo.EvaluationTopologies() {
		b.Run(name, func(b *testing.B) {
			env := getEnv(b, experiment.Config{Topology: name, Seed: 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Score(0.10); err != nil {
					b.Fatal(err)
				}
				attacks, err := env.ApplyRandomAttacks(1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := env.Score(0.10); err != nil {
					b.Fatal(err)
				}
				if err := env.RevertAttacks(attacks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9_Precision measures one precision observation with
// three modified rules (Fig. 9's heaviest case).
func BenchmarkFig9_Precision(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "fattree4", Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attacks, err := env.ApplyRandomAttacks(3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Score(0.05); err != nil {
			b.Fatal(err)
		}
		if err := env.RevertAttacks(attacks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_SlicingAccuracy measures the paired
// baseline-plus-sliced detection on one observation (Fig. 10's unit of
// work).
func BenchmarkFig10_SlicingAccuracy(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "fattree4", Seed: 4})
	y, err := env.Observe(0.10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(env.FCM.H, y, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.DetectSliced(env.Slices, y, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_ThresholdSweep measures scoring a cached sample set
// across the 0..100 threshold sweep (Fig. 11's evaluation loop).
func BenchmarkFig11_ThresholdSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]stats.Sample, 400)
	for i := range samples {
		samples[i] = stats.Sample{Score: rng.Float64() * 50, Positive: i%2 == 0}
	}
	thresholds := stats.LinSpace(0, 100, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range thresholds {
			stats.Evaluate(samples, t)
		}
	}
}

// BenchmarkFig12_DetectionTime measures the baseline vs sliced solve
// at increasing flow counts on FatTree(8) — the Fig. 12 series.
func BenchmarkFig12_DetectionTime(b *testing.B) {
	top, err := topo.ByName("fattree8")
	if err != nil {
		b.Fatal(err)
	}
	for _, flows := range []int{240, 480, 960, 1920} {
		pairs, err := experiment.PairSubset(top, flows)
		if err != nil {
			b.Fatal(err)
		}
		env, err := experiment.NewEnvOn(experiment.Config{Seed: 6, PacketsPerFlow: 100}, top, pairs)
		if err != nil {
			b.Fatal(err)
		}
		y, err := env.Observe(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("baseline/flows="+itoa(flows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(env.FCM.H, y, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sliced/flows="+itoa(flows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DetectSliced(env.Slices, y, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectColdVsPrepared measures the factor-once/detect-many
// win on FatTree(8): "cold" re-assembles and re-factors HᵀH on every
// call (the historical per-period cost), "prepared" reuses the
// factorization a Detector computed once — the steady-state cost of a
// production monitor. The prepared path must be >= 5x faster.
func BenchmarkDetectColdVsPrepared(b *testing.B) {
	top, err := topo.ByName("fattree8")
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := experiment.PairSubset(top, 480)
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiment.NewEnvOn(experiment.Config{Seed: 11, PacketsPerFlow: 100}, top, pairs)
	if err != nil {
		b.Fatal(err)
	}
	y, err := env.Observe(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Detect(env.FCM.H, y, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		det, err := core.NewDetector(env.FCM.H, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetectTelemetryOverhead measures what live metrics cost on
// the unified System.Run hot path: the same prepared engines and the
// same observation, wired first to a no-op registry (time.Now reads
// still happen; metric updates drop at a single branch) and then to a
// live one (atomic counter/histogram updates). The acceptance budget
// for the delta is <2%.
func BenchmarkDetectTelemetryOverhead(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "fattree4", Seed: 21})
	sys, err := env.System()
	if err != nil {
		b.Fatal(err)
	}
	y, err := env.Observe(0)
	if err != nil {
		b.Fatal(err)
	}
	obs := foces.Observation{Vector: y}
	for _, arm := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"nop", telemetry.NewNop()},
		{"enabled", telemetry.New()},
	} {
		b.Run(arm.name, func(b *testing.B) {
			sys.EnableTelemetry(arm.reg)
			if _, err := sys.Run(obs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Run(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectSlicedColdVsPreparedParallel measures the sliced
// analogues on FatTree(8): cold sequential per-slice re-factoring
// (historical DetectSliced), the prepared engine run sequentially
// (factor-once win alone), and the prepared engine over its
// GOMAXPROCS worker pool (the production path).
func BenchmarkDetectSlicedColdVsPreparedParallel(b *testing.B) {
	top, err := topo.ByName("fattree8")
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := experiment.PairSubset(top, 480)
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiment.NewEnvOn(experiment.Config{Seed: 12, PacketsPerFlow: 100}, top, pairs)
	if err != nil {
		b.Fatal(err)
	}
	y, err := env.Observe(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DetectSliced(env.Slices, y, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	sd, err := core.NewSlicedDetector(env.Slices, env.FCM.NumRules(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prepared-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sd.DetectSequential(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sd.Detect(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetectPrepareSerialVsParallel measures baseline preparation
// (full Gram + Cholesky plus all per-slice engines) under the serial
// reference kernels and the parallel blocked kernels.
func BenchmarkDetectPrepareSerialVsParallel(b *testing.B) {
	top, err := topo.ByName("fattree8")
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := experiment.PairSubset(top, 480)
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiment.NewEnvOn(experiment.Config{Seed: 13, PacketsPerFlow: 100}, top, pairs)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		opts matrix.KernelOptions
	}{
		{"serial", matrix.KernelOptions{Serial: true}},
		{"parallel", matrix.KernelOptions{}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			prev := matrix.SetKernelDefaults(arm.opts)
			defer matrix.SetKernelDefaults(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewDetector(env.FCM.H, core.Options{}); err != nil {
					b.Fatal(err)
				}
				if _, err := core.NewSlicedDetector(env.Slices, env.FCM.NumRules(), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Solver compares the least-squares backends on the
// same system (DESIGN.md ablation: Cholesky normal equations vs
// conjugate gradient vs Householder QR).
func BenchmarkAblation_Solver(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "stanford", Seed: 7})
	y, err := env.Observe(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.SolveNormalEquations(env.FCM.H, y, matrix.LeastSquaresOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matrix.SolveNormalEquationsCG(env.FCM.H, y, matrix.CGOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qr", func(b *testing.B) {
		dense := env.FCM.H.ToDense()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := matrix.LeastSquaresQR(dense, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Gram compares sparse-row Gram assembly against the
// dense equivalent (DESIGN.md ablation: HᵀH assembly strategy).
func BenchmarkAblation_Gram(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "stanford", Seed: 8})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.FCM.H.Gram()
		}
	})
	b.Run("dense", func(b *testing.B) {
		dense := env.FCM.H.ToDense()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dense.Gram()
		}
	})
}

// BenchmarkAblation_AnomalyIndex compares the index denominator
// statistics (DESIGN.md ablation: median vs mean).
func BenchmarkAblation_AnomalyIndex(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "fattree4", Seed: 10})
	y, err := env.Observe(0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []core.Denominator{core.DenomMedian, core.DenomMean} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(env.FCM.H, y, core.Options{Denominator: d}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SliceBuild measures one-time slice construction
// (amortized across detection periods in production).
func BenchmarkAblation_SliceBuild(b *testing.B) {
	env := getEnv(b, experiment.Config{Topology: "fattree4", Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSlices(env.FCM); err != nil {
			b.Fatal(err)
		}
	}
}

// ft8Pairs is the bench/ workloads' flow set: the first 960 ordered
// host pairs of FatTree(8), source-major (4,512 pair-exact rules).
func ft8Pairs(b *testing.B) (*topo.Topology, [][2]topo.HostID) {
	b.Helper()
	t, err := topo.FatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][2]topo.HostID
	for _, src := range t.Hosts() {
		for _, dst := range t.Hosts() {
			if src.ID != dst.ID && len(pairs) < 960 {
				pairs = append(pairs, [2]topo.HostID{src.ID, dst.ID})
			}
		}
	}
	return t, pairs
}

// BenchmarkTraceSourceFT8 measures one source's symbolic trace on the
// FatTree(8)/960-pair tables: host 0 sends to 127 destinations, so its
// pin meets ~127 of the ~500 rules of its edge switch and the carved
// remainder grows to ~1,000 pieces — the walk every cold build runs per
// source and every update re-runs for the sources it touches.
func BenchmarkTraceSourceFT8(b *testing.B) {
	t, pairs := ft8Pairs(b)
	layout := header.FiveTuple()
	ctrl, err := controller.New(t, layout, controller.PairExact)
	if err != nil {
		b.Fatal(err)
	}
	if err := ctrl.ComputeRulesForPairs(pairs); err != nil {
		b.Fatal(err)
	}
	tables, err := fcm.BuildTables(t, ctrl.Rules())
	if err != nil {
		b.Fatal(err)
	}
	src := t.Hosts()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := fcm.TraceSource(t, layout, tables, src)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Records) != 127 {
			b.Fatalf("%d records, want 127", len(tr.Records))
		}
	}
}

// BenchmarkChurnApplyModifyFT8 is the churn-ft8 event: a priority bump
// (same match, same action) on one rule of a longest-path pair, through
// System.ModifyRule — controller, data plane, one source re-traced, no
// class born or died, every engine reused.
func BenchmarkChurnApplyModifyFT8(b *testing.B) {
	t, pairs := ft8Pairs(b)
	sys, err := foces.NewSystemWithPairs(t, pairs)
	if err != nil {
		b.Fatal(err)
	}
	var path []int
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) > len(path) {
			path = fl.RuleIDs
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := sys.Controller().Rule(path[i%len(path)])
		if !ok {
			b.Fatal("rule vanished")
		}
		u, err := sys.ModifyRule(r.ID, r.Priority^1, r.Match, r.Action)
		if err != nil {
			b.Fatal(err)
		}
		if u.Retraced != 1 || u.SlicesReused != 80 {
			b.Fatalf("update re-traced %d sources and reused %d engines, want 1 and 80", u.Retraced, u.SlicesReused)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
