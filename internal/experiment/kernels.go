package experiment

import (
	"math"
	"reflect"
	"runtime"
	"time"

	"foces/internal/core"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// KernelsConfig drives the kernel-layer experiment: the same baseline
// (full Gram + Cholesky + per-slice engines) is prepared with the
// serial reference kernels and with the parallel blocked kernels, and
// the same detector then checks a batch of observation windows one by
// one and through the multi-RHS batch path.
type KernelsConfig struct {
	// Topology is a topo.ByName name; zero selects "fattree8".
	Topology string
	// Flows restricts PairExact rules to the first k ordered host pairs
	// (keeping the dense Gram affordable on FatTree(8)); zero selects
	// min(960, all pairs).
	Flows int
	// Windows is the detect-batch width; zero selects 16.
	Windows int
	// Repeats is the number of timing samples per arm (the fastest is
	// kept); zero selects 3.
	Repeats int
	// Seed drives traffic randomness.
	Seed int64
}

func (c KernelsConfig) withDefaults() KernelsConfig {
	if c.Topology == "" {
		c.Topology = "fattree8"
	}
	if c.Windows == 0 {
		c.Windows = 16
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// KernelsPrepare is one arm's prepare-time trajectory (one entry per
// repeat) with the per-stage decomposition of the best repeat.
type KernelsPrepare struct {
	TotalSecs      []float64 `json:"totalSecs"`
	BestTotalSecs  float64   `json:"bestTotalSecs"`
	GramSecs       float64   `json:"gramSecs"`
	FactorSecs     float64   `json:"factorSecs"`
	SliceBuildSecs float64   `json:"sliceBuildSecs"`
}

// KernelsResult reports the serial-vs-parallel prepare and
// batch-vs-loop detect trajectories (results/kernels.json).
type KernelsResult struct {
	Topology   string `json:"topology"`
	Flows      int    `json:"flows"`
	Rules      int    `json:"rules"`
	Slices     int    `json:"slices"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Serial         KernelsPrepare `json:"serialPrepare"`
	Parallel       KernelsPrepare `json:"parallelPrepare"`
	PrepareSpeedup float64        `json:"prepareSpeedup"`
	// VerdictsMatch reports whether serial- and parallel-prepared
	// engines agreed on every probe window (clean and attacked, full and
	// sliced).
	VerdictsMatch bool `json:"verdictsMatch"`

	BatchWindows     int       `json:"batchWindows"`
	LoopNsPerWindow  []float64 `json:"loopNsPerWindow"`
	BatchNsPerWindow []float64 `json:"batchNsPerWindow"`
	BatchSpeedup     float64   `json:"batchSpeedup"`
	// BatchMatchesLoop reports whether DetectBatch returned results
	// byte-identical to the per-window loop.
	BatchMatchesLoop bool `json:"batchMatchesLoop"`
}

// Kernels measures the parallel kernel layer against the serial
// reference path on one environment. Both arms pin the dense backend
// (Sparse: SparseNever): left to SparseAuto, the sparse Grams of a
// pair-exact system — diagonal slices, a sparse full engine — would
// build no dense factor at all, and the experiment would time the
// sparse factor under two names instead of the blocked dense Cholesky
// and the multi-RHS batch solve it exists to gate.
func Kernels(cfg KernelsConfig) (KernelsResult, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return KernelsResult{}, err
	}
	flows := cfg.Flows
	maxPairs := t.NumHosts() * (t.NumHosts() - 1)
	if flows == 0 {
		flows = 960
		if flows > maxPairs {
			flows = maxPairs
		}
	}
	pairs, err := PairSubset(t, flows)
	if err != nil {
		return KernelsResult{}, err
	}
	env, err := NewEnvOn(Config{Topology: cfg.Topology, Seed: cfg.Seed}, t, pairs)
	if err != nil {
		return KernelsResult{}, err
	}
	h := env.FCM.H
	numRules := env.FCM.NumRules()

	type arm struct {
		prep KernelsPrepare
		d    *core.Detector
		sd   *core.SlicedDetector
	}
	measure := func(o matrix.KernelOptions) (arm, error) {
		prev := matrix.SetKernelDefaults(o)
		defer matrix.SetKernelDefaults(prev)
		a := arm{prep: KernelsPrepare{BestTotalSecs: math.Inf(1)}}
		for rep := 0; rep < cfg.Repeats; rep++ {
			f0 := time.Now()
			d, err := core.NewDetector(h, core.Options{})
			if err != nil {
				return arm{}, err
			}
			tFull := time.Since(f0)
			s0 := time.Now()
			sd, err := core.NewSlicedDetector(env.Slices, numRules, core.Options{})
			if err != nil {
				return arm{}, err
			}
			tSlice := time.Since(s0)
			total := (tFull + tSlice).Seconds()
			a.prep.TotalSecs = append(a.prep.TotalSecs, total)
			if total < a.prep.BestTotalSecs {
				stats := d.PrepareStats()
				a.prep.BestTotalSecs = total
				a.prep.GramSecs = stats.Gram.Seconds()
				a.prep.FactorSecs = stats.Factor.Seconds()
				a.prep.SliceBuildSecs = tSlice.Seconds()
				a.d, a.sd = d, sd
			}
		}
		return a, nil
	}
	serial, err := measure(matrix.KernelOptions{Serial: true, Sparse: matrix.SparseNever})
	if err != nil {
		return KernelsResult{}, err
	}
	parallel, err := measure(matrix.KernelOptions{Sparse: matrix.SparseNever})
	if err != nil {
		return KernelsResult{}, err
	}

	res := KernelsResult{
		Topology:   cfg.Topology,
		Flows:      flows,
		Rules:      numRules,
		Slices:     len(env.Slices),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Serial:     serial.prep,
		Parallel:   parallel.prep,
	}
	if parallel.prep.BestTotalSecs > 0 {
		res.PrepareSpeedup = serial.prep.BestTotalSecs / parallel.prep.BestTotalSecs
	}

	// Equivalence probes: a clean window and an attacked window must get
	// the same verdict (and the same suspect set) from both arms.
	res.VerdictsMatch = true
	probe := func(y []float64) error {
		rs, err := serial.d.Detect(y)
		if err != nil {
			return err
		}
		rp, err := parallel.d.Detect(y)
		if err != nil {
			return err
		}
		ss, err := serial.sd.Detect(y)
		if err != nil {
			return err
		}
		sp, err := parallel.sd.Detect(y)
		if err != nil {
			return err
		}
		if rs.Anomalous != rp.Anomalous || ss.Anomalous != sp.Anomalous || !reflect.DeepEqual(ss.Suspects, sp.Suspects) {
			res.VerdictsMatch = false
		}
		return nil
	}
	clean, err := env.Observe(0)
	if err != nil {
		return KernelsResult{}, err
	}
	if err := probe(clean); err != nil {
		return KernelsResult{}, err
	}
	attacks, err := env.ApplyRandomAttacks(1)
	if err != nil {
		return KernelsResult{}, err
	}
	attacked, err := env.Observe(0)
	if err != nil {
		return KernelsResult{}, err
	}
	if err := probe(attacked); err != nil {
		return KernelsResult{}, err
	}
	if err := env.RevertAttacks(attacks); err != nil {
		return KernelsResult{}, err
	}

	// Batch-vs-loop detect on the parallel-prepared full engine.
	ys := make([][]float64, cfg.Windows)
	for i := range ys {
		y, err := env.Observe(0)
		if err != nil {
			return KernelsResult{}, err
		}
		ys[i] = y
	}
	res.BatchWindows = cfg.Windows
	d := parallel.d
	var loopResults, batchResults []core.Result
	for rep := 0; rep < cfg.Repeats; rep++ {
		l0 := time.Now()
		loopResults = loopResults[:0]
		for _, y := range ys {
			r, err := d.Detect(y)
			if err != nil {
				return KernelsResult{}, err
			}
			loopResults = append(loopResults, r)
		}
		res.LoopNsPerWindow = append(res.LoopNsPerWindow, float64(time.Since(l0).Nanoseconds())/float64(cfg.Windows))
		b0 := time.Now()
		batchResults, err = d.DetectBatch(ys)
		if err != nil {
			return KernelsResult{}, err
		}
		res.BatchNsPerWindow = append(res.BatchNsPerWindow, float64(time.Since(b0).Nanoseconds())/float64(cfg.Windows))
	}
	res.BatchMatchesLoop = reflect.DeepEqual(loopResults, batchResults)
	bestLoop, bestBatch := math.Inf(1), math.Inf(1)
	for _, v := range res.LoopNsPerWindow {
		bestLoop = math.Min(bestLoop, v)
	}
	for _, v := range res.BatchNsPerWindow {
		bestBatch = math.Min(bestBatch, v)
	}
	if bestBatch > 0 {
		res.BatchSpeedup = bestLoop / bestBatch
	}
	return res, nil
}
