package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"foces/internal/matrix"
	"foces/internal/stats"
)

// Detector is the prepared form of Algorithm 1 over a fixed flow-counter
// matrix: the normal-equations factorization runs once at construction
// — of HᵀH, or for a wide H (fewer rules than flows) of the smaller
// HHᵀ+εI, the same estimator (see matrix.PreparedLS) — after which
// every Detect call costs one sparse product with Hᵀ, two triangular
// substitutions, one SpMV and order statistics. H only changes when the
// controller installs rules, so continuous monitors build one Detector
// per rule generation and reuse it every detection period (rebuild on
// any rule change — a stale factorization silently checks the wrong
// intent).
//
// A Detector is safe for concurrent Detect calls.
type Detector struct {
	h    *matrix.CSR
	opts Options
	ls   *matrix.PreparedLS // nil exactly when H is degenerate (no rows or no columns)
	pool sync.Pool          // *detectScratch for the public Detect* calls
	tel  *detTelemetry      // nil unless SetTelemetry wired a metric set
}

// detectScratch is one call's solve and median workspace, so concurrent
// calls never share buffers. The public Detect* calls draw it from the
// engine's sync.Pool: a standalone engine (FatTree(16)'s full engine
// needs 31,744 floats) should not pin it between windows. A
// SlicedDetector instead hands every slice engine its own from the run
// scratch it keeps (see slicedScratch).
type detectScratch struct {
	ws  []float64 // triangular-solve workspace, len = Cols
	med []float64 // quickselect median scratch, len = Rows
}

// initPool sizes the pooled scratch for the engine's H.
func (d *Detector) initPool() {
	rows, cols := d.h.Rows(), d.h.Cols()
	d.pool.New = func() any {
		return &detectScratch{ws: make([]float64, cols), med: make([]float64, rows)}
	}
}

// outcomeLen is the length of the block one run of the engine carves
// its outcome from: XHat, YHat and Delta.
func (d *Detector) outcomeLen() int { return d.h.Cols() + 2*d.h.Rows() }

// carveOutcome splits blk — a zeroed block of cols+2·rows entries, or
// nil to allocate one — into the XHat, YHat and Delta vectors of one
// outcome over an H of rows × cols. Each is capped at its own length,
// so appending to one reallocates instead of growing into its
// neighbour.
func carveOutcome(blk []float64, rows, cols int) (xHat, yHat, delta []float64) {
	if blk == nil {
		blk = make([]float64, cols+2*rows)
	}
	y, e := cols+rows, cols+2*rows
	return blk[:cols:cols], blk[cols:y:y], blk[y:e:e]
}

// NewDetector prepares a detection engine for h. opts fixes the
// defaults used by Detect; DetectWithOptions can override them per
// call without re-factoring (only the Cholesky factorization is baked
// in — thresholds and denominators are applied at query time).
func NewDetector(h *matrix.CSR, opts Options) (*Detector, error) {
	return NewDetectorReusing(h, opts, nil)
}

// NewDetectorReusing prepares like NewDetector but hands PrepareLS the
// previous generation's prepared engine, so a baseline whose Gram
// pattern is unchanged (value-only churn) skips the
// fill-reducing ordering and symbolic analysis and reruns only the
// numeric factorization.
func NewDetectorReusing(h *matrix.CSR, opts Options, prev *matrix.PreparedLS) (*Detector, error) {
	d := &Detector{h: h, opts: opts}
	if h.Rows() > 0 && h.Cols() > 0 {
		ls, err := matrix.PrepareLSReusing(h, matrix.LeastSquaresOptions{}, prev)
		if err != nil {
			return nil, fmt.Errorf("core: prepare detector: %w", err)
		}
		d.ls = ls
	}
	d.initPool()
	return d, nil
}

// H returns the flow-counter matrix the engine was prepared for.
func (d *Detector) H() *matrix.CSR { return d.h }

// PrepareStats reports where this engine's prepare time went (Gram
// assembly vs Cholesky factorization). Zero for engines without a
// prepared factorization (degenerate H) and for engines assembled from
// an externally maintained factor.
func (d *Detector) PrepareStats() matrix.PrepareStats {
	if d.ls == nil {
		return matrix.PrepareStats{}
	}
	return d.ls.Stats()
}

// Detect runs Algorithm 1 on one period's counter vector using the
// options fixed at construction.
func (d *Detector) Detect(y []float64) (Result, error) {
	return d.DetectWithOptions(y, d.opts)
}

// DetectWithOptions runs Algorithm 1 with per-call options; the
// prepared factorization is reused.
func (d *Detector) DetectWithOptions(y []float64, opts Options) (Result, error) {
	sc := d.pool.Get().(*detectScratch)
	defer d.pool.Put(sc)
	return d.detectMasked(y, nil, opts, sc, nil)
}

// detectAll is Algorithm 1 over every row of H, with sc as the solve
// and median workspace and the outcome carved from blk (see
// carveOutcome).
func (d *Detector) detectAll(y []float64, opts Options, sc *detectScratch, blk []float64) (Result, error) {
	h := d.h
	if h.Rows() != len(y) {
		return Result{}, fmt.Errorf("core: H is %dx%d but y has %d entries", h.Rows(), h.Cols(), len(y))
	}
	opts = opts.withDefaults(y)
	tel := d.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	if h.Rows() == 0 {
		// Nothing to check: an empty system is trivially consistent.
		res := Result{Delta: make([]float64, len(y))}
		tel.outcome(t0, res)
		return res, nil
	}
	if h.Cols() == 0 {
		// No flow is expected to touch these rules, so every counter's
		// expected value is exactly zero: any observed volume is an
		// inconsistency no flow-volume estimate can explain (this keeps
		// Theorem 3 intact for slices of rules outside all flow paths,
		// like rule r4 in the paper's Fig. 2).
		_, yHat, delta := carveOutcome(blk, len(y), 0)
		for i, v := range y {
			delta[i] = math.Abs(v)
		}
		res := Result{Delta: delta, YHat: yHat}
		res.ErrMax, _ = stats.Max(delta)
		res.Index = anomalyIndex(res.ErrMax, 0, opts.ZeroTol)
		res.Anomalous = res.Index > opts.Threshold
		tel.outcome(t0, res)
		return res, nil
	}
	xHat, yHat, delta := carveOutcome(blk, h.Rows(), h.Cols())
	if err := d.ls.SolveInto(xHat, y, sc.ws); err != nil {
		return Result{}, fmt.Errorf("core: volume estimate: %w", err)
	}
	var tResid time.Time
	if tel != nil {
		tResid = time.Now()
		tel.solve.ObserveDuration(tResid.Sub(t0).Nanoseconds())
	}
	res, err := fit(h, y, xHat, yHat, delta, opts, sc.med)
	if err != nil {
		return Result{}, err
	}
	if tel != nil {
		tel.residual.ObserveDuration(time.Since(tResid).Nanoseconds())
	}
	tel.outcome(t0, res)
	return res, nil
}

// Fit completes Algorithm 1 from a volume estimate x̂ obtained
// elsewhere: the fitted counters Ŷ = H·x̂, the error vector
// Δ = |Y' − Ŷ| and the anomaly index, exactly as a Detector computes
// them from its own estimate.
func Fit(h *matrix.CSR, y, xHat []float64, opts Options) (Result, error) {
	if h.Rows() != len(y) || h.Cols() != len(xHat) {
		return Result{}, fmt.Errorf("core: H is %dx%d but y has %d entries and x̂ %d", h.Rows(), h.Cols(), len(y), len(xHat))
	}
	_, yHat, delta := carveOutcome(nil, h.Rows(), 0)
	return fit(h, y, xHat, yHat, delta, opts.withDefaults(y), make([]float64, h.Rows()))
}

// fit is Fit under defaulted options, writing into the zeroed yHat and
// delta, with med as the median workspace (all of length Rows).
func fit(h *matrix.CSR, y, xHat, yHat, delta []float64, opts Options, med []float64) (Result, error) {
	if err := h.MulVecInto(yHat, xHat); err != nil {
		return Result{}, err
	}
	for i := range delta {
		delta[i] = math.Abs(y[i] - yHat[i])
	}
	res := Result{Delta: delta, XHat: xHat, YHat: yHat}
	res.ErrMax, _ = stats.Max(delta)
	res.ErrMed = opts.denominatorInto(med, delta)
	res.Index = anomalyIndex(res.ErrMax, res.ErrMed, opts.ZeroTol)
	res.Anomalous = res.Index > opts.Threshold
	return res, nil
}

// SlicedDetector is the prepared form of Algorithm 2: one Detector per
// per-switch slice (each slice's sub-FCM factored once), the row-gather
// indices validated at build time, and the per-slice counter gathers,
// solve and median workspaces, result and error buffers drawn from run
// scratch the detector keeps on a free list, so steady-state periods
// are allocation-flat apart from the returned outcome — however often
// the garbage collector runs. Detect fans the slices out over a
// persistent worker pool sized by GOMAXPROCS (goroutines start on the
// first parallel run and idle on a buffered job channel between
// periods); the outcome (including Suspects order) is identical to a
// sequential run.
//
// A SlicedDetector is safe for concurrent Detect calls.
type SlicedDetector struct {
	slices   []Slice
	engines  []*Detector
	numRules int
	opts     Options
	workers  int
	tel      *slicedTelemetry // nil unless SetTelemetry wired a metric set

	scratchMu sync.Mutex
	free      []*slicedScratch // run scratch not in use, at most maxFreeScratch

	poolOnce sync.Once       // starts the persistent workers
	jobs     chan *slicedJob // buffered dispatch to the persistent workers
	stop     *poolStop       // its finalizer ends the pool once sd is collected
}

// maxFreeScratch caps a sliced detector's run-scratch free list: one
// entry per concurrent run, beyond which released scratch falls
// through to the garbage collector.
const maxFreeScratch = 4

// poolStop carries the finalizer that stops a detector's workers. It is
// its own small object, referenced only by the detector, because an
// object with a finalizer outlives its last reference by a collection
// cycle: were the finalizer on the SlicedDetector, every retired rule
// generation's engines — megabytes of factors — would stay live that
// extra cycle. Masked windows run on the pool too, so under churn each
// generation's detector starts one.
type poolStop struct{ ch chan struct{} }

// slicedScratch holds one run's per-slice gather buffers, solve and
// median workspaces, slice-local masks and the result/error/skip
// slots, plus the dispatch job itself. A run owns the whole set; each
// slice index is touched by exactly one worker, and every slot is
// overwritten each run, so nothing needs clearing for correctness.
type slicedScratch struct {
	subs    [][]float64
	engine  []detectScratch
	locals  [][]int
	results []Result
	errs    []error
	skipped []bool
	// outAt[i]:outAt[i+1] is slice i's share of a run's outcome block;
	// outAt[n] is the block's length.
	outAt []int
	job   slicedJob
}

// newScratch builds one run's scratch in a fixed number of allocations
// whatever the slice count: every slice's gather buffer and its
// engine's workspaces are carved from one array, each capped at its
// own length so no append can grow into a neighbour. Under churn every
// rule generation builds a detector and then its first scratch, so a
// per-slice allocation here would be paid per slice per generation.
func (sd *SlicedDetector) newScratch() *slicedScratch {
	n := len(sd.slices)
	size := 0
	for i, sl := range sd.slices {
		size += len(sl.RuleRows) + sd.engines[i].h.Rows() + sd.engines[i].h.Cols()
	}
	buf := make([]float64, size)
	carve := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	sc := &slicedScratch{
		subs:    make([][]float64, n),
		engine:  make([]detectScratch, n),
		locals:  make([][]int, n),
		results: make([]Result, n),
		errs:    make([]error, n),
		skipped: make([]bool, n),
		outAt:   make([]int, n+1),
	}
	for i, sl := range sd.slices {
		sc.subs[i] = carve(len(sl.RuleRows))
		sc.engine[i] = detectScratch{med: carve(sd.engines[i].h.Rows()), ws: carve(sd.engines[i].h.Cols())}
		sc.outAt[i+1] = sc.outAt[i] + sd.engines[i].outcomeLen()
	}
	sc.job.sd = sd
	return sc
}

// getScratch pops free run scratch, or builds it.
func (sd *SlicedDetector) getScratch() *slicedScratch {
	sd.scratchMu.Lock()
	var sc *slicedScratch
	if k := len(sd.free); k > 0 {
		sc = sd.free[k-1]
		sd.free[k-1] = nil
		sd.free = sd.free[:k-1]
	}
	sd.scratchMu.Unlock()
	if sc == nil {
		sc = sd.newScratch()
	}
	return sc
}

// putScratch returns run scratch to the free list, first dropping the
// run's results and errors so the list never keeps a returned outcome's
// vectors alive. The scratch points back at sd only, so a retired
// detector and everything it kept are collected together.
func (sd *SlicedDetector) putScratch(sc *slicedScratch) {
	clear(sc.results)
	clear(sc.errs)
	sd.scratchMu.Lock()
	if len(sd.free) < maxFreeScratch {
		sd.free = append(sd.free, sc)
	}
	sd.scratchMu.Unlock()
}

// slicedJob is one Detect call's unit of dispatch: workers pull it from
// the job channel and claim chunks of the slice range with an atomic
// cursor until the range is exhausted. Gather time is accumulated per
// chunk (two timer reads per chunk, not per slice).
type slicedJob struct {
	sd       *SlicedDetector
	y        []float64
	mask     []bool    // over the full rule space; nil when nothing is masked
	out      []float64 // the run's outcome block, carved per slice by sc.outAt
	opts     Options
	sc       *slicedScratch
	chunk    int
	timed    bool
	next     atomic.Int64
	gatherNS atomic.Int64
	wg       sync.WaitGroup
}

func (j *slicedJob) work() {
	n := len(j.sd.slices)
	for {
		lo := int(j.next.Add(int64(j.chunk))) - j.chunk
		if lo >= n {
			return
		}
		hi := lo + j.chunk
		if hi > n {
			hi = n
		}
		j.runChunk(lo, hi)
	}
}

func (j *slicedJob) runChunk(lo, hi int) {
	sd, y, sc := j.sd, j.y, j.sc
	if j.timed {
		g0 := time.Now()
		for i := lo; i < hi; i++ {
			sub := sc.subs[i]
			for k, rid := range sd.slices[i].RuleRows {
				sub[k] = y[rid]
			}
		}
		j.gatherNS.Add(time.Since(g0).Nanoseconds())
	} else {
		for i := lo; i < hi; i++ {
			sub := sc.subs[i]
			for k, rid := range sd.slices[i].RuleRows {
				sub[k] = y[rid]
			}
		}
	}
	for i := lo; i < hi; i++ {
		var local []int
		skip := false
		if j.mask != nil {
			local, skip = sd.slices[i].LocalMask(j.mask, sc.locals[i][:0])
			sc.locals[i] = local
		}
		sc.skipped[i] = skip
		if skip {
			sc.results[i], sc.errs[i] = Result{}, nil
			continue
		}
		blk := j.out[sc.outAt[i]:sc.outAt[i+1]]
		sc.results[i], sc.errs[i] = sd.engines[i].detectMasked(sc.subs[i], local, j.opts, &sc.engine[i], blk)
	}
}

// slicedPoolWorker is a persistent pool goroutine. It captures only the
// two channels — never the detector — so an abandoned SlicedDetector
// remains collectible; its poolStop's finalizer closes stop to end the
// pool.
func slicedPoolWorker(jobs <-chan *slicedJob, stop <-chan struct{}) {
	for {
		select {
		case j := <-jobs:
			j.work()
			j.wg.Done()
		case <-stop:
			return
		}
	}
}

// startWorkers lazily launches the persistent pool on the first
// parallel Detect, so detectors built only to be probed sequentially
// (e.g. thousands of churn-epoch rebuilds) never spawn goroutines.
func (sd *SlicedDetector) startWorkers() {
	sd.poolOnce.Do(func() {
		sd.jobs = make(chan *slicedJob, sd.workers)
		sd.stop = &poolStop{ch: make(chan struct{})}
		for w := 1; w < sd.workers; w++ {
			go slicedPoolWorker(sd.jobs, sd.stop.ch)
		}
		runtime.SetFinalizer(sd.stop, func(p *poolStop) { close(p.ch) })
	})
}

// NewSlicedDetector prepares one engine per slice, fanning the
// per-slice factorizations across GOMAXPROCS goroutines
// (each slice's PrepareLS is independent; errors are reported for the
// lowest failing slice regardless of completion order). numRules is the
// length of the full counter vector (FCM.NumRules()); every slice's
// RuleRows are bounds-checked against it here, once, instead of every
// detection period.
func NewSlicedDetector(slices []Slice, numRules int, opts Options) (*SlicedDetector, error) {
	for _, sl := range slices {
		for _, rid := range sl.RuleRows {
			if rid < 0 || rid >= numRules {
				return nil, fmt.Errorf("core: slice rule %d outside counter vector (%d)", rid, numRules)
			}
		}
	}
	engines := make([]*Detector, len(slices))
	buildErrs := make([]error, len(slices))
	matrix.FanOut(len(slices), func(i int) {
		engines[i], buildErrs[i] = NewDetector(slices[i].H, opts)
	})
	for i, err := range buildErrs {
		if err != nil {
			return nil, fmt.Errorf("core: slice switch %d: %w", slices[i].Switch, err)
		}
	}
	return newSlicedDetector(slices, engines, numRules, opts), nil
}

// newSlicedDetector wires the shared detector state (worker bound) around
// validated slices and engines; run scratch is built on first use.
func newSlicedDetector(slices []Slice, engines []*Detector, numRules int, opts Options) *SlicedDetector {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(slices) {
		workers = len(slices)
	}
	if workers < 1 {
		workers = 1
	}
	return &SlicedDetector{
		slices:   slices,
		engines:  engines,
		numRules: numRules,
		opts:     opts,
		workers:  workers,
	}
}

// NumSlices reports the number of prepared slices.
func (sd *SlicedDetector) NumSlices() int { return len(sd.slices) }

// Workers reports the worker-pool bound used by Detect.
func (sd *SlicedDetector) Workers() int { return sd.workers }

// Detect runs Algorithm 2 on one period's counter vector, slices in
// parallel, using the options fixed at construction.
func (sd *SlicedDetector) Detect(y []float64) (SlicedOutcome, error) {
	return sd.detect(y, nil, sd.opts, sd.workers)
}

// DetectWithOptions runs Algorithm 2 with per-call options (the
// prepared per-slice factorizations are reused).
func (sd *SlicedDetector) DetectWithOptions(y []float64, opts Options) (SlicedOutcome, error) {
	return sd.detect(y, nil, opts, sd.workers)
}

// DetectMasked runs Algorithm 2 with the given global rule rows masked
// out of every slice they appear in: each engine is handed its
// slice-local mask (Detector.DetectMasked), and a slice whose own-switch
// rows are all masked is skipped and absent from the outcome (see
// Slice.LocalMask). An empty mask is exactly DetectWithOptions. Skipping
// every slice is an error: a blind window must not read as a clean one.
func (sd *SlicedDetector) DetectMasked(y []float64, masked []int, opts Options) (SlicedOutcome, error) {
	return sd.detect(y, masked, opts, sd.workers)
}

// DetectSequential runs the slices one by one on the calling
// goroutine — the reference execution the parallel path must match
// exactly, and a debugging aid when a slice misbehaves.
func (sd *SlicedDetector) DetectSequential(y []float64) (SlicedOutcome, error) {
	return sd.detect(y, nil, sd.opts, 1)
}

func (sd *SlicedDetector) detect(y []float64, masked []int, opts Options, workers int) (SlicedOutcome, error) {
	if len(y) != sd.numRules {
		return SlicedOutcome{}, fmt.Errorf("core: counter vector has %d entries, sliced detector expects %d", len(y), sd.numRules)
	}
	mask, err := RowMask(sd.numRules, masked)
	if err != nil {
		return SlicedOutcome{}, err
	}
	tel := sd.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	sc := sd.getScratch()
	defer sd.putScratch(sc)
	results := sc.results
	errs := sc.errs
	j := &sc.job
	// Every slice's outcome is carved from one block per run. It is the
	// run's, not the scratch's: the returned outcome keeps it.
	j.y, j.mask, j.out, j.opts, j.sc = y, mask, make([]float64, sc.outAt[len(sd.slices)]), opts, sc
	j.timed = tel != nil
	j.gatherNS.Store(0)
	j.next.Store(0)
	j.chunk = len(sd.slices) / (sd.workers * 4)
	if j.chunk < 1 {
		j.chunk = 1
	}
	if workers > 1 && len(sd.slices) > 1 {
		// Hand the job to idle pool workers; the caller participates
		// below. A full job buffer means the pool is saturated by
		// concurrent runs — the caller then just claims more chunks
		// itself instead of blocking.
		sd.startWorkers()
		for w := 1; w < workers; w++ {
			j.wg.Add(1)
			select {
			case sd.jobs <- j:
			default:
				j.wg.Done()
				w = workers
			}
		}
	}
	j.work()
	j.wg.Wait()
	j.y, j.mask, j.out = nil, nil, nil
	// Aggregate in slice order so parallel and sequential runs produce
	// identical outcomes, including Suspects order under index ties.
	checked := 0
	for i, sl := range sd.slices {
		if errs[i] != nil {
			return SlicedOutcome{}, fmt.Errorf("core: slice switch %d: %w", sl.Switch, errs[i])
		}
		if !sc.skipped[i] {
			checked++
			tel.slice(results[i])
		}
	}
	if tel != nil {
		tel.gather.ObserveDuration(j.gatherNS.Load())
		tel.fanout.Observe(float64(checked))
	}
	if checked == 0 && len(sd.slices) > 0 {
		return SlicedOutcome{}, fmt.Errorf("core: every slice's own rows are masked; nothing to check")
	}
	out := MergeSliceResults(sd.slices, results, sc.skipped)
	tel.outcome(t0, out.Anomalous)
	return out, nil
}
