package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"foces"
	"foces/internal/collector"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/openflow"
	"foces/internal/topo"
)

// ft8Params sizes the three collection-plane workloads. All three run
// the same system; they differ in what the generator does to it.
type ft8Params struct {
	k       int     // fat-tree arity
	pairs   int     // first ordered host pairs, pair-exact rules
	loss    float64 // per-link loss probability
	packets uint64  // offered packets per flow per window
}

// fullFT8 is the scale of every number archived in results/.
var fullFT8 = ft8Params{k: 8, pairs: 960, loss: 0.01, packets: 1000}

const (
	// attackEvery puts a port-swap attack in every 8th window.
	attackEvery = 8
	// verdictTimeout is how long a window may wait for its report.
	verdictTimeout = 5 * time.Second
)

// ft8Chain is the whole chain under test for one run: switch agents on
// loopback TCP, the robust collector, the window assembler and Serve,
// plus the generator state that drives them. One goroutine — the
// caller's — generates traffic, polls, pushes and waits, with one
// window in flight: a closed loop with one client.
type ft8Chain struct {
	workload string
	sys      *foces.System
	net      *dataplane.Network
	switches []topo.SwitchID

	agents  []*openflow.Agent
	clients []*openflow.Client
	timed   []*timedStats
	traceOn atomic.Bool
	tr      *tracer

	rc      *collector.RobustCollector
	asm     *collector.WindowAssembler
	reports <-chan foces.StreamReport
	cancel  context.CancelFunc

	// Generator state. schedRng draws the schedule (attacks, missing
	// switches, churn targets), trafficRng the packet loss, so neither
	// depends on how many windows the other has seen.
	schedRng   *rand.Rand
	trafficRng *rand.Rand
	traffic    dataplane.TrafficMatrix
	halves     [2]dataplane.TrafficMatrix // churn-ft8: before and after the update
	// churn-ft8 leaves a few pairs idle and rewrites only their rules.
	// The simulated flow table restarts a rewritten rule's counter, which
	// on a loaded rule reads as a switch reset and turns the window into
	// a missing-switch one; an idle rule's counter stays 0, as a real
	// OpenFlow modify would leave it.
	rotation int             // degraded-ft8: first unpolled switch
	due      []topo.SwitchID // degraded-ft8: reused poll list
	idle     [][]int         // churn-ft8: per idle pair, the rules ModifyRule may rewrite
	basePrio map[int]int

	// The bench's own copy of the collection state, for the reference
	// check: last cumulative counter per rule and which switches have a
	// baseline.
	ruleSwitch []topo.SwitchID
	prev       []uint64
	primed     map[topo.SwitchID]bool
	nextSeq    uint64
	buf        []byte
}

// windowRec is what one window measured. Times are milliseconds.
type windowRec struct {
	attacked   bool
	fullAnom   bool
	slicedAnom bool
	failure    string // non-empty: the window counts as failed

	trafficMS float64
	updateMS  float64 // churn-ft8: the ModifyRule call
	latencyMS float64 // poll start to report encoded
	pollMS    float64
	pushMS    float64
	serveMS   float64
	encodeMS  float64

	runTotalMS  float64 // Report.Timings
	fullMS      float64
	slicedMS    float64
	reportBytes int
	batched     int
	maskedRows  int
	missing     int

	applyMS float64 // ChurnUpdate.Elapsed

	statsUS    []float64 // traced: each flow-stats round trip
	statsMaxMS float64
}

func firstPairs(t *topo.Topology, k int) ([][2]topo.HostID, error) {
	pairs := make([][2]topo.HostID, 0, k)
	for _, src := range t.Hosts() {
		for _, dst := range t.Hosts() {
			if src.ID == dst.ID {
				continue
			}
			pairs = append(pairs, [2]topo.HostID{src.ID, dst.ID})
			if len(pairs) == k {
				return pairs, nil
			}
		}
	}
	return nil, fmt.Errorf("%s has only %d ordered host pairs, want %d", t.Name(), len(pairs), k)
}

// traceSetupLayers times the set-up layers one by one, from outside,
// on the same topology and pairs the system under test is built from.
// NewSystemWithPairs does the same work in one call and returns no
// breakdown, so the traced run pays for it twice.
func traceSetupLayers(t *topo.Topology, pairs [][2]topo.HostID, tr *tracer, m map[string]float64) error {
	stage := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		tr.add(name, 0, -1, start, end)
		m[name+"_ms"] = ms(end.Sub(start))
		return err
	}
	layout := header.FiveTuple()
	var (
		ctrl *controller.Controller
		f    *fcm.FCM
	)
	if err := stage("controller.bootstrap", func() error {
		var err error
		if ctrl, err = controller.New(t, layout, controller.PairExact); err != nil {
			return err
		}
		if err = ctrl.ComputeRulesForPairs(pairs); err != nil {
			return err
		}
		return ctrl.Install(dataplane.NewNetwork(t, layout))
	}); err != nil {
		return err
	}
	if err := stage("fcm.generate", func() error {
		var err error
		f, err = fcm.Generate(t, layout, ctrl.Rules())
		return err
	}); err != nil {
		return err
	}
	if err := stage("core.slices_build", func() error {
		slices, err := core.BuildSlices(f)
		if err != nil {
			return err
		}
		_, err = core.NewSlicedDetector(slices, f.NumRules(), core.Options{})
		return err
	}); err != nil {
		return err
	}
	return stage("core.full_prepare", func() error {
		_, err := core.NewDetector(f.H, core.Options{})
		return err
	})
}

// newFT8Chain builds the system and brings the collection plane up:
// everything setup_s covers.
func newFT8Chain(workload string, p ft8Params, seed int64, tr *tracer, m map[string]float64) (*ft8Chain, error) {
	t, err := topo.FatTree(p.k)
	if err != nil {
		return nil, err
	}
	pairs, err := firstPairs(t, p.pairs)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := traceSetupLayers(t, pairs, tr, m); err != nil {
			return nil, err
		}
	}
	sys, err := foces.NewSystemWithPairs(t, pairs)
	if err != nil {
		return nil, err
	}
	c := &ft8Chain{
		workload:   workload,
		sys:        sys,
		net:        sys.Network(),
		tr:         tr,
		primed:     make(map[topo.SwitchID]bool),
		schedRng:   rand.New(rand.NewSource(seed)),
		trafficRng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		nextSeq:    2, // window 1 primes the baselines and yields no report
	}
	if err := c.net.SetLinkLoss(p.loss); err != nil {
		return nil, err
	}
	for _, sw := range t.Switches() {
		c.switches = append(c.switches, sw.ID)
	}
	sort.Slice(c.switches, func(i, j int) bool { return c.switches[i] < c.switches[j] })
	rules := sys.FCM().Rules
	c.ruleSwitch = make([]topo.SwitchID, len(rules))
	for id, r := range rules {
		c.ruleSwitch[id] = r.Switch
	}
	c.prev = make([]uint64, len(rules))

	stats := make(map[topo.SwitchID]collector.StatsClient, len(c.switches))
	for _, sw := range c.switches {
		agent, err := openflow.NewAgent(c.net, sw)
		if err != nil {
			c.close()
			return nil, err
		}
		c.agents = append(c.agents, agent)
		client, err := dialAgent(agent)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("control channel to switch %d: %w", sw, err)
		}
		c.clients = append(c.clients, client)
		if tr != nil {
			ts := &timedStats{inner: client, on: &c.traceOn}
			c.timed = append(c.timed, ts)
			stats[sw] = ts
		} else {
			stats[sw] = client
		}
	}
	c.rc = collector.NewRobustFromStats(stats, collector.RobustConfig{})
	c.asm = collector.NewWindowAssembler(c.switches, collector.StreamConfig{RuleSpace: len(rules)})
	c.asm.SetEpoch(sys.Epoch())
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.reports, err = sys.Serve(ctx, foces.StreamConfig{Windows: c.asm.Windows()})
	if err != nil {
		c.close()
		return nil, err
	}

	c.traffic = make(dataplane.TrafficMatrix, len(pairs))
	for _, pr := range pairs {
		c.traffic[dataplane.FlowKey{Src: pr[0], Dst: pr[1]}] = p.packets
	}
	switch workload {
	case wlDegraded:
		c.rotation = c.schedRng.Intn(len(c.switches))
	case wlChurn:
		// One idle pair per source host, each on a longest path, rewritten
		// in rotation: what an update re-traces, and so costs, depends on
		// the source (17 to 145 ms across the eight here), and what the
		// reconciled solve costs on the rule's switch. The seed picks the
		// destinations and where the rotation starts, not the mix.
		c.rotation = c.schedRng.Intn(len(c.switches))
		type candidate struct {
			pair  [2]topo.HostID
			rules []int
		}
		bySrc := make(map[topo.HostID][]candidate)
		var sources []topo.HostID
		for _, pr := range pairs {
			flow, ok := sys.FCM().FlowByPair(pr[0], pr[1])
			if !ok {
				c.close()
				return nil, fmt.Errorf("churn: no flow for pair %v", pr)
			}
			cands, seen := bySrc[pr[0]]
			if !seen {
				sources = append(sources, pr[0])
			}
			if len(cands) > 0 && len(flow.RuleIDs) < len(cands[0].rules) {
				continue
			}
			if len(cands) > 0 && len(flow.RuleIDs) > len(cands[0].rules) {
				cands = cands[:0]
			}
			bySrc[pr[0]] = append(cands, candidate{pr, flow.RuleIDs})
		}
		c.basePrio = make(map[int]int)
		for _, src := range sources {
			pick := bySrc[src][c.schedRng.Intn(len(bySrc[src]))]
			delete(c.traffic, dataplane.FlowKey{Src: pick.pair[0], Dst: pick.pair[1]})
			c.idle = append(c.idle, pick.rules)
			for _, id := range pick.rules {
				c.basePrio[id] = rules[id].Priority
			}
		}
		for h := range c.halves {
			c.halves[h] = make(dataplane.TrafficMatrix, len(c.traffic))
		}
		for k, v := range c.traffic {
			c.halves[0][k] = v / 2
			c.halves[1][k] = v - v/2
		}
	}
	return c, nil
}

// dialAgent connects one switch agent to a new client over loopback
// TCP: the monitored switch's control channel.
func dialAgent(agent *openflow.Agent) (*openflow.Client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	// Buffered so the accepting goroutine ends whether or not the dial
	// below succeeds; ln.Close unblocks Accept.
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- accepted{conn, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	a := <-acc
	if a.err != nil {
		conn.Close()
		return nil, a.err
	}
	agent.Go(a.conn)
	client := openflow.NewClient(conn, 0)
	if err := client.Hello(); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

func (c *ft8Chain) setTracing(on bool) { c.traceOn.Store(on && c.tr != nil) }

// layerCounts reads the counters the layers keep themselves, per poll
// round or per rule update where the run length would otherwise show.
func (c *ft8Chain) layerCounts(m map[string]float64) {
	rm := c.rc.Metrics()
	m["collector.requests"] = ratio(float64(rm.Requests), float64(rm.Periods))
	m["collector.retries"] = float64(rm.Retries)
	m["collector.failures"] = float64(rm.Failures)
	m["collector.quarantines"] = float64(rm.Quarantines)
	as := c.asm.Stats()
	m["collector.coalesced"] = float64(as.Coalesced)
	m["collector.dropped_windows"] = float64(as.DroppedWindows)
	m["collector.max_queue_depth"] = float64(as.MaxQueueDepth)
	prepareStats(c.sys.Detector().PrepareStats(), m)
	if cs := c.sys.ChurnStats(); cs.Updates > 0 {
		n := float64(cs.Updates)
		touched := float64(cs.SlicesReused + cs.SlicesUpdated + cs.SlicesRefactored)
		m["churn.retraced_sources"] = float64(cs.Retraced) / n
		m["churn.slices_reused"] = float64(cs.SlicesReused) / n
		m["churn.slices_updated"] = float64(cs.SlicesUpdated) / n
		m["churn.slices_refactored"] = float64(cs.SlicesRefactored) / n
		m["churn.reuse_share"] = ratio(float64(cs.SlicesReused), touched)
	}
}

// prepareStats files a full engine's prepare breakdown under matrix.*.
func prepareStats(st matrix.PrepareStats, m map[string]float64) {
	m["matrix.gram_ms"] = ms(st.Gram)
	m["matrix.ordering_ms"] = ms(st.Ordering)
	m["matrix.symbolic_ms"] = ms(st.Symbolic)
	m["matrix.numeric_ms"] = ms(st.Numeric)
	m["matrix.factor_nnz"] = float64(st.FactorNNZ)
	m["matrix.fill_ratio"] = ratio(float64(st.FactorNNZ), float64(st.GramNNZ))
}

// close stops Serve, the clients and the agents, and waits for them.
func (c *ft8Chain) close() {
	if c.cancel != nil {
		c.cancel()
	}
	if c.asm != nil {
		c.asm.Close()
	}
	if c.reports != nil {
		for range c.reports {
		}
	}
	for _, cl := range c.clients {
		_ = cl.Close() // ends the agent's session; nothing to report
	}
	for _, a := range c.agents {
		a.Close()
	}
}

// prime runs the window that gives every switch its baseline snapshot.
// Serve drops it: a window with no usable rows has no verdict.
func (c *ft8Chain) prime() error {
	if _, err := c.net.Run(c.trafficRng, c.traffic); err != nil {
		return err
	}
	snap, err := c.rc.PollSnapshots(context.Background(), nil)
	if err != nil {
		return err
	}
	if len(snap.Snapshots) != len(c.switches) {
		return fmt.Errorf("priming poll reached %d of %d switches", len(snap.Snapshots), len(c.switches))
	}
	for _, sw := range c.switches {
		if err := c.asm.Push(collector.Update{Switch: sw, Counters: snap.Snapshots[sw]}); err != nil {
			return err
		}
		c.absorb(sw, snap.Snapshots[sw], nil)
	}
	return nil
}

// absorb folds one switch's cumulative snapshot into the bench's own
// copy and, when the switch had a baseline, writes the window's deltas
// into y. It reports whether the switch's rows are usable this window.
func (c *ft8Chain) absorb(sw topo.SwitchID, counters map[int]uint64, y []float64) bool {
	usable := c.primed[sw]
	for id, v := range counters {
		if usable && y != nil {
			y[id] = float64(v - c.prev[id])
		}
		c.prev[id] = v
	}
	c.primed[sw] = true
	return usable
}

// drawAttack draws a port-swap attack on a rule that carries traffic
// and sits on none of the avoided switches.
func (c *ft8Chain) drawAttack(avoid ...topo.SwitchID) (dataplane.Attack, error) {
draw:
	for {
		atk, err := dataplane.RandomAttack(c.schedRng, c.net, dataplane.AttackPortSwap)
		if err != nil {
			return atk, err
		}
		if c.prev[atk.RuleID] == 0 {
			continue
		}
		for _, sw := range avoid {
			if atk.Switch == sw {
				continue draw
			}
		}
		return atk, nil
	}
}

// unpolled is the switch degraded-ft8 leaves out of window i.
func (c *ft8Chain) unpolled(i int) topo.SwitchID {
	n := len(c.switches)
	return c.switches[(c.rotation+i+n)%n] // i is -1 at the least
}

// window runs window i: the generator's part (attack, traffic, rule
// update), then the timed chain from the start of the poll to the
// encoded report, then the reference check. A non-nil meter brackets
// exactly the timed chain. A returned error is a harness failure that
// ends the run; a window that merely failed says so in rec.failure.
func (c *ft8Chain) window(i int, meter *allocMeter) (windowRec, error) {
	var rec windowRec
	rec.attacked = i%attackEvery == attackEvery-1

	// --- generator ---
	genStart := time.Now()
	var (
		atk      dataplane.Attack
		miss     topo.SwitchID = -1
		update   foces.ChurnUpdate
		updStart time.Time
		updEnd   time.Time
		err      error
	)
	if c.workload == wlDegraded {
		miss = c.unpolled(i)
	}
	if rec.attacked {
		// The switch left out last window re-primes in this one, so its
		// rows are masked too.
		if c.workload == wlDegraded {
			atk, err = c.drawAttack(miss, c.unpolled(i-1))
		} else {
			atk, err = c.drawAttack()
		}
		if err != nil {
			return rec, err
		}
		if err := atk.Apply(c.net); err != nil {
			return rec, err
		}
	}
	if c.workload == wlChurn {
		if _, err := c.net.Run(c.trafficRng, c.halves[0]); err != nil {
			return rec, err
		}
		pairRules := c.idle[(c.rotation+i)%len(c.idle)]
		id := pairRules[(c.rotation+i/len(c.idle))%len(pairRules)]
		r, ok := c.sys.Controller().Rule(id)
		if !ok {
			return rec, fmt.Errorf("churn: rule %d vanished", id)
		}
		prio := c.basePrio[id]
		if r.Priority == prio {
			prio++
		}
		updStart = time.Now()
		update, err = c.sys.ModifyRule(id, prio, r.Match, r.Action)
		updEnd = time.Now()
		if err != nil {
			return rec, fmt.Errorf("churn: modify rule %d: %w", id, err)
		}
		c.asm.SetEpoch(c.sys.Epoch())
		rec.updateMS = ms(updEnd.Sub(updStart))
		rec.applyMS = ms(update.Elapsed)
		if _, err := c.net.Run(c.trafficRng, c.halves[1]); err != nil {
			return rec, err
		}
	} else if _, err := c.net.Run(c.trafficRng, c.traffic); err != nil {
		return rec, err
	}
	var due []topo.SwitchID // nil polls every switch
	if miss >= 0 {
		due = make([]topo.SwitchID, 0, len(c.switches)-1)
		for _, sw := range c.switches {
			if sw != miss {
				due = append(due, sw)
			}
		}
	}
	timeout := time.NewTimer(verdictTimeout) // made here, outside the metered section
	defer timeout.Stop()
	rec.trafficMS = ms(time.Since(genStart)) - rec.updateMS

	// --- the timed chain: period end to encoded verdict ---
	if meter != nil {
		meter.begin()
	}
	pollStart := time.Now()
	snap, err := c.rc.PollSnapshots(context.Background(), due)
	pollEnd := time.Now()
	if err != nil {
		return rec, err
	}
	if miss >= 0 {
		c.asm.Forget(miss)
		c.asm.MarkMissing(miss)
	}
	for _, sw := range snap.Failed {
		c.asm.Forget(sw)
	}
	if len(snap.Failed)+len(snap.Skipped) > 0 {
		c.asm.MarkMissing(snap.Failed...)
		c.asm.MarkMissing(snap.Skipped...)
	}
	for _, sw := range c.switches {
		if counters, ok := snap.Snapshots[sw]; ok {
			if err := c.asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
				return rec, err
			}
		}
	}
	pushEnd := time.Now()
	var sr foces.StreamReport
	select {
	case r, ok := <-c.reports:
		if !ok {
			return rec, errors.New("report channel closed")
		}
		sr = r
	case <-timeout.C:
		return rec, fmt.Errorf("window %d: no report within %v", i, verdictTimeout)
	}
	serveEnd := time.Now()
	var encErr error
	c.buf, encErr = sr.Report.AppendJSON(c.buf[:0])
	end := time.Now()
	if meter != nil {
		meter.end()
	}

	// --- outside the timed chain ---
	if rec.attacked {
		if err := atk.Revert(c.net); err != nil {
			return rec, err
		}
	}
	rep := &sr.Report
	rec.latencyMS = ms(end.Sub(pollStart))
	rec.pollMS = ms(pollEnd.Sub(pollStart))
	rec.pushMS = ms(pushEnd.Sub(pollEnd))
	rec.serveMS = ms(serveEnd.Sub(pushEnd))
	rec.encodeMS = ms(end.Sub(serveEnd))
	rec.runTotalMS = ms(rep.Timings.Total)
	rec.fullMS = ms(rep.Timings.Full)
	rec.slicedMS = ms(rep.Timings.Sliced)
	rec.reportBytes = len(c.buf)
	rec.batched = sr.Batched
	rec.maskedRows = len(rep.MaskedRows)
	rec.missing = len(rep.Missing)

	if c.traceOn.Load() {
		w := c.tr.add("window", i, -1, pollStart, end)
		p := c.tr.add("collector.poll", i, w, pollStart, pollEnd)
		for _, ts := range c.timed {
			ts.drain(func(s, e time.Time) {
				c.tr.add("openflow.flow_stats", i, p, s, e)
				d := e.Sub(s)
				rec.statsUS = append(rec.statsUS, float64(d.Nanoseconds())/1e3)
				if m := ms(d); m > rec.statsMaxMS {
					rec.statsMaxMS = m
				}
			})
		}
		c.tr.add("collector.push", i, w, pollEnd, pushEnd)
		s := c.tr.add("foces.serve", i, w, pushEnd, serveEnd)
		// Run reports durations, not clock readings: place them so that
		// the run ends when the report arrived.
		next := c.tr.addWithin("core.full", i, s, serveEnd.Add(-rep.Timings.Total), rep.Timings.Full)
		c.tr.addWithin("core.sliced", i, s, next, rep.Timings.Sliced)
		c.tr.add("foces.encode", i, w, serveEnd, end)
		if c.workload == wlChurn {
			c.tr.add("churn.apply", i, -1, updStart, updEnd)
		}
	}

	// Harness invariants: a break here is a bug in the bench, not a
	// failed window.
	if sr.Window != c.nextSeq {
		return rec, fmt.Errorf("window %d: report for assembler window %d, want %d", i, sr.Window, c.nextSeq)
	}
	c.nextSeq++

	// The bench's own deltas, from its own copy of consecutive polls.
	y := make([]float64, len(c.prev))
	var missing []topo.SwitchID
	for _, sw := range c.switches {
		counters, polled := snap.Snapshots[sw]
		if !polled {
			c.primed[sw] = false
			missing = append(missing, sw)
			continue
		}
		if !c.absorb(sw, counters, y) {
			missing = append(missing, sw)
		}
	}

	switch {
	case sr.Err != nil:
		rec.failure = "report error: " + sr.Err.Error()
	case encErr != nil:
		rec.failure = "encode: " + encErr.Error()
	case len(snap.Failed)+len(snap.Skipped) > 0:
		rec.failure = fmt.Sprintf("collection: %d switches failed, %d skipped", len(snap.Failed), len(snap.Skipped))
	}
	if rec.failure != "" {
		return rec, nil
	}
	if want := wantPath(c.workload); rep.Path != want {
		return rec, fmt.Errorf("window %d: path %q, want %q", i, rep.Path, want)
	}
	full, ok := fullResult(rep)
	if !ok || rep.Sliced == nil {
		return rec, fmt.Errorf("window %d: ModeAuto report lacks an engine result", i)
	}
	rec.fullAnom = full.Anomalous
	rec.slicedAnom = rep.Sliced.Anomalous
	rec.failure = c.checkReference(rep, full, y, missing, update.Affected)
	return rec, nil
}

func wantPath(workload string) string {
	switch workload {
	case wlDegraded:
		return foces.PathMissing
	case wlChurn:
		return foces.PathReconciled
	}
	return foces.PathClean
}

// fullResult picks the full-engine result out of a report, whichever
// path it took.
func fullResult(rep *foces.Report) (core.Result, bool) {
	if rep.Full != nil {
		return *rep.Full, true
	}
	if rep.Partial != nil {
		return rep.Partial.Result, true
	}
	return core.Result{}, false
}

// checkReference solves the window cold, with core.Detect on H minus
// the rows of missing switches and masked rules, from the bench's own
// deltas, and returns why the report disagrees ("" when it agrees).
func (c *ft8Chain) checkReference(rep *foces.Report, full core.Result, y []float64, missing []topo.SwitchID, masked []int) string {
	if !slices.Equal(rep.Missing, missing) {
		return fmt.Sprintf("missing switches %v, reference %v", rep.Missing, missing)
	}
	drop := make([]bool, len(y))
	gone := make(map[topo.SwitchID]bool, len(missing))
	for _, sw := range missing {
		gone[sw] = true
	}
	for _, id := range masked {
		drop[id] = true
	}
	h := c.sys.FCM().H
	rows := make([]int, 0, len(y))
	for id, sw := range c.ruleSwitch {
		if sw >= 0 && !gone[sw] && !drop[id] {
			rows = append(rows, id)
		}
	}
	if len(rows) < len(y) {
		cols := make([]int, h.Cols())
		for j := range cols {
			cols[j] = j
		}
		sub, err := h.SubMatrix(rows, cols)
		if err != nil {
			return "reference: " + err.Error()
		}
		ySub := make([]float64, len(rows))
		for k, id := range rows {
			ySub[k] = y[id]
		}
		h, y = sub, ySub
	}
	ref, err := core.Detect(h, y, core.Options{})
	if err != nil {
		return "reference: " + err.Error()
	}
	if ref.Anomalous != full.Anomalous {
		return fmt.Sprintf("verdict %v (AI %.6g), reference %v (AI %.6g)", full.Anomalous, full.Index, ref.Anomalous, ref.Index)
	}
	if rep.Path == foces.PathClean && !closeIndex(full.Index, ref.Index) {
		return fmt.Sprintf("AI %.12g, reference %.12g", full.Index, ref.Index)
	}
	return ""
}

// closeIndex reports |a−b| ≤ 1e-6·max(1, b), with equal infinities
// agreeing.
func closeIndex(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-6*math.Max(1, b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
