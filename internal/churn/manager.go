package churn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// class is one logical-flow equivalence class, keyed by the set of
// rules its packets traverse. The uid is stable for the class's
// lifetime (and never reused), so two generations' columns can be
// compared for identity without comparing histories.
type class struct {
	uid     uint64
	key     string
	history []int        // representative rule history, path order
	space   header.Space // representative header space
	// bySource maps each contributing source host to its delivered
	// destinations (−1 for drops), in discovery order.
	bySource map[topo.HostID][]topo.HostID
	// pairs is bySource flattened in host order — the class's
	// fcm.Flow.Pairs, shared by every generation until a re-trace of one
	// of its sources resets it to nil.
	pairs []fcm.Pair
	dead  bool
}

// sliceMeta remembers what a per-switch engine was built from, so the
// next update can decide reuse / rank-one repair / refactor.
type sliceMeta struct {
	pos     int      // index of the slice in Manager.slices
	rows    []int    // global rule IDs, ascending (Slice.RuleRows)
	colUIDs []uint64 // class uid per sub-FCM column
	engine  *core.Detector
}

// Manager owns the epoch-versioned detection baseline for one network:
// live rules, per-source symbolic traces, logical-flow classes, the
// sparse FCM, and the per-switch prepared engines — all maintained
// incrementally under Apply. It is safe for concurrent use; detection
// may run concurrently with itself, and Apply serializes against
// everything.
type Manager struct {
	mu     sync.Mutex
	topol  *topo.Topology
	layout *header.Layout
	opts   core.Options
	cfg    Config

	epoch uint64
	log   Log
	stats Stats

	// rows is the rule set spread over the ever-allocated ID space (see
	// fcm.DenseRows): retired IDs are placeholder rows. It is the
	// current FCM's Rules, so Apply patches a copy.
	rows   []flowtable.Rule
	tables map[topo.SwitchID]*flowtable.Table

	hosts      []*topo.Host                 // sources, in topology (= column discovery) order
	hostPos    map[topo.HostID]int          // index into hosts
	pins       map[topo.HostID]header.Space // fcm.SourcePin per source
	traces     map[topo.HostID]*fcm.SourceTrace
	classes    map[string]*class
	order      []*class // column order: survivors first, in prior order
	srcClasses map[topo.HostID]map[*class]bool
	nextUID    uint64

	fcmCur    *fcm.FCM
	slices    []core.Slice
	sliced    *core.SlicedDetector
	sliceMeta map[topo.SwitchID]*sliceMeta
	replica   map[topo.SwitchID]*ReplicaState

	full      *core.Detector
	fullEpoch uint64
	fullOK    bool

	// Telemetry wiring (nil unless SetTelemetry was called): det is
	// re-applied to every engine generation rebuild creates; tel records
	// the incremental-maintenance activity itself, stages the Apply
	// stages of its PrepareSeconds family.
	det    *telemetry.DetectionMetrics
	tel    *telemetry.ChurnMetrics
	stages applyStages
}

// applyStages are the per-Apply children of foces_prepare_stage_seconds,
// resolved once at wiring time: trace (symbolic re-trace of the selected
// sources), assemble (classes → FCM → the slices the update touched) and
// slice_build (their engines).
type applyStages struct {
	trace, assemble, sliceBuild *telemetry.Histogram
}

// NewManager seeds a manager from a rule set (the cold baseline). space
// is the exclusive upper bound of ever-allocated rule IDs
// (controller.RuleSpace()); IDs in [0, space) absent from rules are
// treated as retired and become permanent placeholder rows.
func NewManager(t *topo.Topology, layout *header.Layout, rules []flowtable.Rule, space int, opts core.Options, cfg Config) (*Manager, error) {
	rows, err := fcm.DenseRows(rules, space)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	tables, err := fcm.BuildTables(t, rules)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		topol:      t,
		layout:     layout,
		opts:       opts,
		cfg:        cfg.withDefaults(),
		rows:       rows,
		tables:     tables,
		hosts:      t.Hosts(),
		hostPos:    make(map[topo.HostID]int),
		pins:       make(map[topo.HostID]header.Space),
		traces:     make(map[topo.HostID]*fcm.SourceTrace),
		classes:    make(map[string]*class),
		srcClasses: make(map[topo.HostID]map[*class]bool),
	}
	for i, h := range m.hosts {
		m.hostPos[h.ID] = i
		if m.pins[h.ID], err = fcm.SourcePin(layout, h); err != nil {
			return nil, err
		}
	}
	traces, err := fcm.TraceSources(t, layout, tables, m.hosts)
	if err != nil {
		return nil, err
	}
	for _, tr := range traces {
		m.mergeTrace(tr)
	}
	m.stats.Sources = len(m.hosts)
	if err := m.rebuild(nil, columnChange{}); err != nil {
		return nil, err
	}
	return m, nil
}

// mergeTrace folds one source's records into the class structures
// (first-discovery order, matching fcm.GenerateSparse exactly on a cold
// build) and stores the trace.
func (m *Manager) mergeTrace(tr *fcm.SourceTrace) {
	set := m.srcClasses[tr.Src]
	if set == nil {
		set = make(map[*class]bool)
		m.srcClasses[tr.Src] = set
	}
	for _, rec := range tr.Records {
		key := fcm.HistoryKey(rec.History)
		c, ok := m.classes[key]
		if !ok {
			c = &class{
				uid:      m.nextUID,
				key:      key,
				history:  rec.History,
				space:    rec.Space,
				bySource: make(map[topo.HostID][]topo.HostID),
			}
			m.nextUID++
			m.classes[key] = c
			m.order = append(m.order, c)
		}
		c.dead = false
		c.bySource[tr.Src] = append(c.bySource[tr.Src], rec.Dst)
		c.pairs = nil
		set[c] = true
	}
	m.traces[tr.Src] = tr
}

// withdraw removes one source's contributions ahead of its re-trace;
// classes left without any source are dead unless a re-trace revives
// them.
func (m *Manager) withdraw(src topo.HostID) {
	for c := range m.srcClasses[src] {
		delete(c.bySource, src)
		c.pairs = nil
		if len(c.bySource) == 0 {
			c.dead = true
		}
	}
	delete(m.srcClasses, src)
}

// flowPairs returns c's (src, dst) pairs in host order, flattening
// bySource only after a re-trace changed it.
func (m *Manager) flowPairs(c *class) []fcm.Pair {
	if c.pairs != nil {
		return c.pairs
	}
	srcs := make([]topo.HostID, 0, len(c.bySource))
	for src := range c.bySource {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return m.hostPos[srcs[i]] < m.hostPos[srcs[j]] })
	for _, src := range srcs {
		for _, dst := range c.bySource[src] {
			c.pairs = append(c.pairs, fcm.Pair{Src: src, Dst: dst})
		}
	}
	return c.pairs
}

// liveRules returns the live rule set sorted by ID.
func (m *Manager) liveRules() []flowtable.Rule {
	out := make([]flowtable.Rule, 0, len(m.rows))
	for _, r := range m.rows {
		if r.Switch >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// columnChange is what an update did to the column order.
type columnChange struct {
	// remap sends an old column to its new index; nil when no class died
	// (survivors keep their relative order, so only a death shifts them).
	remap []int
	// born reports classes appended at the tail.
	born bool
}

// rebuild moves the baseline to the next generation at a cost
// proportional to what the update touched. The FCM is reassembled from
// the class structures (H itself is carried over when no class was born
// or died and no row was added); only slices of changed switches or with
// a row in u.Affected are derived again and their engines reused,
// rank-one-repaired or refactored — every other slice, with its engine
// and replication state, is carried over: nothing it was built from
// moved (a surviving class never changes its history, and a born or
// dead one has every rule of its history in Affected). On the cold seed
// (u nil) every slice is built. u receives the engine-disposition
// counts.
func (m *Manager) rebuild(u *Update, cols columnChange) error {
	var t0 time.Time
	if m.tel != nil {
		t0 = time.Now()
	}
	flowStore := make([]fcm.Flow, len(m.order)) // the generation's flows, one allocation
	flows := make([]*fcm.Flow, len(m.order))
	for j, c := range m.order {
		flowStore[j] = fcm.Flow{RuleIDs: c.history, Pairs: m.flowPairs(c), Space: c.space}
		flows[j] = &flowStore[j]
	}
	var h *matrix.CSR
	if u != nil && cols.remap == nil && !cols.born && m.fcmCur.H.Rows() == len(m.rows) {
		h = m.fcmCur.H
	}
	f, err := fcm.Assemble(m.topol, m.layout, m.rows, flows, h)
	if err != nil {
		return err
	}
	// stale marks the switches whose slice must be derived again; nil
	// (cold seed) means all of them.
	var stale map[topo.SwitchID]bool
	if u != nil {
		stale = make(map[topo.SwitchID]bool, len(u.ChangedSwitches))
		for _, sw := range u.ChangedSwitches {
			stale[sw] = true
		}
		for sw, old := range m.sliceMeta {
			for _, rid := range u.Affected {
				if _, found := sort.Find(len(old.rows), func(i int) int { return rid - old.rows[i] }); found {
					stale[sw] = true
					break
				}
			}
		}
	}
	derived, err := core.BuildSlicesFor(f, stale)
	if err != nil {
		return err
	}
	// The new generation in topology switch order: derived slices where
	// stale, the previous generation's otherwise.
	var (
		slices  []core.Slice
		engines []*core.Detector
		metas   []*sliceMeta // per slice; carried slices arrive complete
		rebuilt []int        // indices into slices that need an engine
	)
	for _, s := range m.topol.Switches() {
		switch old := m.sliceMeta[s.ID]; {
		case stale == nil || stale[s.ID]:
			if len(derived) == 0 || derived[0].Switch != s.ID {
				continue // no rule left (or none yet) on this switch
			}
			sl := derived[0]
			derived = derived[1:]
			uids := make([]uint64, len(sl.FlowCols))
			for k, col := range sl.FlowCols {
				uids[k] = m.order[col].uid
			}
			rebuilt = append(rebuilt, len(slices))
			metas = append(metas, &sliceMeta{pos: len(slices), rows: sl.RuleRows, colUIDs: uids})
			slices = append(slices, sl)
			engines = append(engines, nil)
		case old != nil:
			sl := m.slices[old.pos]
			if cols.remap != nil {
				moved := make([]int, len(sl.FlowCols))
				for k, col := range sl.FlowCols {
					moved[k] = cols.remap[col]
				}
				sl.FlowCols = moved
			}
			metas = append(metas, &sliceMeta{pos: len(slices), rows: old.rows, colUIDs: old.colUIDs, engine: old.engine})
			slices = append(slices, sl)
			engines = append(engines, old.engine)
		}
	}
	if m.tel != nil {
		m.stages.assemble.ObserveDuration(time.Since(t0).Nanoseconds())
		t0 = time.Now()
	}
	// Per-slice engine builds are independent (each reads only the old
	// generation's meta and clones any factor it repairs), so fan them
	// across GOMAXPROCS workers; dispositions and errors are aggregated
	// in slice order afterwards so reporting stays deterministic.
	dispositions := make([]sliceDisposition, len(rebuilt))
	changes := make([]*SliceChange, len(rebuilt))
	buildErrs := make([]error, len(rebuilt))
	matrix.FanOut(len(rebuilt), func(k int) {
		i := rebuilt[k]
		engines[i], dispositions[k], changes[k], buildErrs[k] = m.buildSliceEngine(slices[i], metas[i].colUIDs, m.sliceMeta[slices[i].Switch])
	})
	if m.tel != nil {
		m.stages.sliceBuild.ObserveDuration(time.Since(t0).Nanoseconds())
	}
	epoch := uint64(0)
	if u != nil {
		epoch = u.Epoch
		u.SlicesReused = len(slices) - len(rebuilt)
	}
	meta := make(map[topo.SwitchID]*sliceMeta, len(slices))
	replica := make(map[topo.SwitchID]*ReplicaState, len(slices))
	for i, sl := range slices {
		meta[sl.Switch] = metas[i]
		// A carried-over slice keeps its replication state as it keeps
		// its engine. Dropped switches fall out of both maps.
		replica[sl.Switch] = m.replica[sl.Switch]
	}
	for k, i := range rebuilt {
		if buildErrs[k] != nil {
			return buildErrs[k]
		}
		sl := slices[i]
		metas[i].engine = engines[i]
		// Replica-log maintenance mirrors the engine disposition exactly:
		// a refactor resets the slice's replication base (the snapshot a
		// joining or fill-rejected replica is served), a rank-one repair
		// appends the rows it applied, and a reused engine carries its
		// state forward untouched.
		switch dispositions[k] {
		case sliceReused:
			if u != nil {
				u.SlicesReused++
			}
		case sliceUpdated:
			prev := m.replica[sl.Switch]
			ch := *changes[k]
			ch.Epoch = epoch
			replica[sl.Switch] = &ReplicaState{
				Switch:    sl.Switch,
				BaseEpoch: prev.BaseEpoch,
				BaseRows:  prev.BaseRows,
				BaseH:     prev.BaseH,
				Changes:   append(append([]SliceChange(nil), prev.Changes...), ch),
			}
			if u != nil {
				u.SlicesUpdated++
			}
		default:
			replica[sl.Switch] = &ReplicaState{
				Switch:    sl.Switch,
				BaseEpoch: epoch,
				BaseRows:  sl.RuleRows,
				BaseH:     sl.H,
			}
			if u != nil {
				u.SlicesRefactored++
			}
		}
	}
	sliced, err := core.NewSlicedDetectorWithEngines(slices, engines, len(m.rows), m.opts)
	if err != nil {
		return err
	}
	// Wire telemetry before the new generation is published so no
	// detection ever observes a half-wired engine.
	sliced.SetTelemetry(m.det)
	m.fcmCur = f
	m.slices = slices
	m.sliced = sliced
	m.sliceMeta = meta
	m.replica = replica
	m.fullOK = false // Algorithm 1 engine is rebuilt lazily on demand
	return nil
}

type sliceDisposition int

const (
	sliceRefactored sliceDisposition = iota
	sliceReused
	sliceUpdated
)

// buildSliceEngine decides, for one slice of the new generation,
// whether the previous engine can be reused (identical rows and column
// classes), repaired by rank-one update/downdate (identical column
// classes, row delta within threshold), or must be refactored.
func (m *Manager) buildSliceEngine(sl core.Slice, uids []uint64, old *sliceMeta) (*core.Detector, sliceDisposition, *SliceChange, error) {
	if old != nil && equalUIDs(old.colUIDs, uids) {
		removed, added := rowDelta(old.rows, sl.RuleRows)
		if len(removed) == 0 && len(added) == 0 {
			return old.engine, sliceReused, nil, nil
		}
		if m.cfg.UpdateThreshold > 0 && len(removed)+len(added) <= m.cfg.UpdateThreshold {
			if eng, ch, err := m.rankOneRepair(sl, old, removed, added); err != nil {
				return nil, sliceRefactored, nil, err
			} else if eng != nil {
				return eng, sliceUpdated, ch, nil
			}
		}
	}
	// Refactor path. Reusing the previous engine's prepared state lets a
	// slice whose Gram pattern is unchanged skip ordering and symbolic
	// analysis.
	var prev *matrix.PreparedLS
	if old != nil {
		prev = old.engine.Prepared()
	}
	eng, err := core.NewDetectorReusing(sl.H, m.opts, prev)
	if err != nil {
		return nil, sliceRefactored, nil, fmt.Errorf("churn: slice switch %d: %w", sl.Switch, err)
	}
	return eng, sliceRefactored, nil, nil
}

// rankOneRepair advances old's Gram factor to the new slice's by
// downdating removed rows and updating added ones — O(k·affected
// columns) against the full refactor. Returns a nil engine (caller refactors) when the old
// engine has no usable factor, an update/downdate leaves the Gram
// insufficiently positive definite, or a sparse update would need fill
// outside the cached factor pattern. The repair works on a clone, so a
// failed pass poisons only the throwaway copy — the serving engine is
// untouched, and NewPreparedLSFromUpdatable additionally refuses to
// promote any poisoned factor. On success the applied rows come back
// as a SliceChange so a replica can replay the identical operations.
func (m *Manager) rankOneRepair(sl core.Slice, old *sliceMeta, removed, added []int) (*core.Detector, *SliceChange, error) {
	prep := old.engine.Prepared()
	if prep == nil || sl.H.Cols() == 0 {
		return nil, nil, nil
	}
	chol := prep.CloneFactor()
	if chol == nil {
		return nil, nil, nil
	}
	oldH := old.engine.H()
	oldPos := make(map[int]int, len(old.rows))
	for i, rid := range old.rows {
		oldPos[rid] = i
	}
	newPos := make(map[int]int, len(sl.RuleRows))
	for i, rid := range sl.RuleRows {
		newPos[rid] = i
	}
	ch := &SliceChange{}
	for _, rid := range removed {
		ch.Removed = append(ch.Removed, extractRowVec(oldH, oldPos[rid], rid))
	}
	for _, rid := range added {
		ch.Added = append(ch.Added, extractRowVec(sl.H, newPos[rid], rid))
	}
	if err := applyRowVecs(chol, sl.H.Cols(), ch.Removed, ch.Added); err != nil {
		// Degenerate or fill-inducing deltas are expected churn outcomes
		// that the refactor path absorbs; only unexpected errors propagate.
		if errors.Is(err, matrix.ErrNotPositiveDefinite) || errors.Is(err, matrix.ErrSparseUpdateFill) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	ls, err := matrix.NewPreparedLSFromUpdatable(sl.H, chol, prep.Ridge())
	if err != nil {
		return nil, nil, err
	}
	return core.NewDetectorFromPrepared(ls, m.opts), ch, nil
}

func equalUIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowDelta diffs two ascending row-ID lists.
func rowDelta(old, new []int) (removed, added []int) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, new[j])
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, new[j:]...)
	return removed, added
}

// Apply validates and applies one controller mutation batch, advancing
// the epoch: intent tables are patched, only sources whose symbolic
// trace visited a changed switch are re-traced (concurrently, merged in
// host order), the FCM is reassembled with surviving columns in place,
// and the per-switch engines the update touched are reused,
// rank-one-repaired or refactored as the slice structure dictates. The
// returned Update is also appended to the epoch log.
func (m *Manager) Apply(events []controller.RuleChange) (Update, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	if len(events) == 0 {
		return Update{}, fmt.Errorf("churn: empty update")
	}
	if err := m.validate(events); err != nil {
		return Update{}, err
	}
	// Decide which sources to re-trace against the pre-update state
	// (the filter reasons about old traces and old class histories).
	need := m.retraceSet(events)
	// Patch live rules (a copy: the current FCM owns m.rows) and intent
	// tables; collect changed switches.
	rows := append([]flowtable.Rule(nil), m.rows...)
	changed := make(map[topo.SwitchID]bool)
	for _, e := range events {
		tbl := m.tables[e.Rule.Switch]
		if e.Op != controller.RuleAdded {
			if err := tbl.Remove(e.Rule.ID); err != nil {
				return Update{}, fmt.Errorf("churn: %s rule %d: %w", e.Op, e.Rule.ID, err)
			}
			rows[e.Rule.ID] = flowtable.Rule{ID: e.Rule.ID, Switch: -1}
		}
		if e.Op != controller.RuleRemoved {
			if err := tbl.Install(e.Rule); err != nil {
				return Update{}, fmt.Errorf("churn: %s rule %d: %w", e.Op, e.Rule.ID, err)
			}
			for id := len(rows); id <= e.Rule.ID; id++ {
				rows = append(rows, flowtable.Rule{ID: id, Switch: -1})
			}
			rows[e.Rule.ID] = e.Rule
		}
		changed[e.Rule.Switch] = true
	}
	m.rows = rows
	// Re-trace exactly the sources whose forwarding could have changed.
	var t0 time.Time
	if m.tel != nil {
		t0 = time.Now()
	}
	firstNewUID := m.nextUID
	var retrace []*topo.Host
	for _, h := range m.hosts {
		if need[h.ID] {
			m.withdraw(h.ID)
			retrace = append(retrace, h)
		}
	}
	traces, err := fcm.TraceSources(m.topol, m.layout, m.tables, retrace)
	if err != nil {
		return Update{}, err
	}
	for _, tr := range traces {
		m.mergeTrace(tr)
	}
	if m.tel != nil {
		m.stages.trace.ObserveDuration(time.Since(t0).Nanoseconds())
	}
	// Compact the column order: survivors keep their relative order,
	// classes born this epoch stay appended at the tail.
	affected := make(map[int]bool)
	for _, e := range events {
		affected[e.Rule.ID] = true
	}
	var cols columnChange
	kept := m.order[:0]
	for j, c := range m.order {
		if c.dead {
			delete(m.classes, c.key)
			for _, rid := range c.history {
				affected[rid] = true
			}
			if cols.remap == nil {
				cols.remap = make([]int, len(m.order))
				for k := 0; k < j; k++ {
					cols.remap[k] = k
				}
			}
			cols.remap[j] = -1
			continue
		}
		if c.uid >= firstNewUID {
			cols.born = true
			for _, rid := range c.history {
				affected[rid] = true
			}
		}
		if cols.remap != nil {
			cols.remap[j] = len(kept)
		}
		kept = append(kept, c)
	}
	m.order = kept
	u := Update{
		Epoch:    m.epoch + 1,
		Events:   append([]controller.RuleChange(nil), events...),
		Retraced: len(retrace),
	}
	for sw := range changed {
		u.ChangedSwitches = append(u.ChangedSwitches, sw)
	}
	sort.Slice(u.ChangedSwitches, func(i, j int) bool { return u.ChangedSwitches[i] < u.ChangedSwitches[j] })
	for rid := range affected {
		u.Affected = append(u.Affected, rid)
	}
	sort.Ints(u.Affected)
	if err := m.rebuild(&u, cols); err != nil {
		return Update{}, err
	}
	m.epoch++
	u.Elapsed = time.Since(start)
	m.log.append(u)
	m.stats.Epoch = m.epoch
	m.stats.Updates++
	m.stats.Events += len(events)
	m.stats.Retraced += u.Retraced
	m.stats.SlicesReused += u.SlicesReused
	m.stats.SlicesUpdated += u.SlicesUpdated
	m.stats.SlicesRefactored += u.SlicesRefactored
	m.stats.LastElapsed = u.Elapsed
	m.stats.TotalElapsed += u.Elapsed
	if tel := m.tel; tel != nil {
		tel.ApplySeconds.Observe(u.Elapsed.Seconds())
		tel.AffectedRows.Observe(float64(len(u.Affected)))
		tel.RetracedSources.Observe(float64(u.Retraced))
		tel.Updates.Inc()
		tel.Events.Add(uint64(len(events)))
		tel.Slices.With("reused").Add(uint64(u.SlicesReused))
		tel.Slices.With("updated").Add(uint64(u.SlicesUpdated))
		tel.Slices.With("refactored").Add(uint64(u.SlicesRefactored))
		tel.Epoch.Set(float64(m.epoch))
	}
	return u, nil
}

// validate simulates the batch against the current state so a bad
// batch is rejected atomically, before anything mutates.
func (m *Manager) validate(events []controller.RuleChange) error {
	// pending overlays the batch's own adds and removes (−1) on m.rows.
	pending := make(map[int]topo.SwitchID)
	switchOf := func(id int) (topo.SwitchID, bool) {
		if sw, ok := pending[id]; ok {
			return sw, sw >= 0
		}
		if id < 0 || id >= len(m.rows) || m.rows[id].Switch < 0 {
			return 0, false
		}
		return m.rows[id].Switch, true
	}
	space := len(m.rows)
	for i, e := range events {
		switch e.Op {
		case controller.RuleAdded:
			// The controller's allocator is monotonic and never
			// reclaims: a fresh rule must sit at or above the current
			// rule space (in particular, never on a retired ID).
			if e.Rule.ID < space {
				return fmt.Errorf("churn: event %d adds rule %d below rule space %d (IDs are never reused)", i, e.Rule.ID, space)
			}
			if _, ok := m.tables[e.Rule.Switch]; !ok {
				return fmt.Errorf("churn: event %d adds rule on unknown switch %d", i, e.Rule.Switch)
			}
			pending[e.Rule.ID] = e.Rule.Switch
			space = e.Rule.ID + 1
		case controller.RuleRemoved:
			sw, ok := switchOf(e.Rule.ID)
			if !ok {
				return fmt.Errorf("churn: event %d removes unknown rule %d", i, e.Rule.ID)
			}
			if sw != e.Rule.Switch {
				return fmt.Errorf("churn: event %d removes rule %d from switch %d, installed on %d", i, e.Rule.ID, e.Rule.Switch, sw)
			}
			pending[e.Rule.ID] = -1
		case controller.RuleModified:
			sw, ok := switchOf(e.Rule.ID)
			if !ok {
				return fmt.Errorf("churn: event %d modifies unknown rule %d", i, e.Rule.ID)
			}
			if sw != e.Rule.Switch {
				return fmt.Errorf("churn: event %d moves rule %d across switches (%d→%d); use remove+add", i, e.Rule.ID, sw, e.Rule.Switch)
			}
		default:
			return fmt.Errorf("churn: event %d has invalid op %v", i, e.Op)
		}
	}
	return nil
}

// retraceSet computes the sources whose forwarding a batch could
// possibly alter, evaluated against the pre-update traces and classes.
// The filter is sound per event:
//
//   - Removing (or modifying away from) rule r can only change traffic
//     that previously *matched* r — exactly the sources contributing to
//     a class with r in its history, which are the columns of r's row
//     of H. Traffic of other sources at r's switch either matched a
//     higher-priority rule (unaffected) or missed every rule including
//     r (still misses them all).
//   - Adding rule r (or modifying toward a new match/priority/action)
//     can only change traffic that can reach r's switch (the old walk
//     consulted it — a source cannot newly arrive there unless some
//     other event in the batch rerouted it, and that event selects the
//     source itself) and that r's match can capture at all. Every
//     packet a source emits lies in its fcm.SourcePin space, so a match
//     disjoint from the pin provably never touches the source — this is
//     what keeps a host-pinned policy tweak from re-tracing every
//     source that merely traverses the same core switch.
//
// Re-traces then run against the fully patched tables, so multi-event
// batches converge in one pass.
func (m *Manager) retraceSet(events []controller.RuleChange) map[topo.HostID]bool {
	need := make(map[topo.HostID]bool)
	var arrivals []flowtable.Rule // rules whose (new) match may capture traffic
	for _, e := range events {
		if e.Op != controller.RuleRemoved {
			arrivals = append(arrivals, e.Rule)
		}
		if e.Op == controller.RuleAdded || e.Rule.ID >= m.fcmCur.H.Rows() {
			continue // not in the pre-update FCM: nothing matched it
		}
		m.fcmCur.H.RowEntries(e.Rule.ID, func(col int, _ float64) {
			for src := range m.order[col].bySource {
				need[src] = true
			}
		})
	}
	for _, h := range m.hosts {
		if need[h.ID] {
			continue
		}
		tr, pin := m.traces[h.ID], m.pins[h.ID]
		for _, r := range arrivals {
			if tr.Visited[r.Switch] && pin.Overlaps(r.Match) {
				need[h.ID] = true
				break
			}
		}
	}
	return need
}

// Epoch reports the current epoch (0 until the first update).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// FCM returns the current flow-counter matrix (placeholder rows for
// retired rule IDs included).
func (m *Manager) FCM() *fcm.FCM {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fcmCur
}

// Slices returns the current per-switch slices.
func (m *Manager) Slices() []core.Slice {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slices
}

// Sliced returns the current prepared Algorithm 2 engine.
func (m *Manager) Sliced() *core.SlicedDetector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sliced
}

// Rules returns the live rule set, sorted by ID.
func (m *Manager) Rules() []flowtable.Rule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveRules()
}

// RuleSpace reports the exclusive upper bound of ever-allocated rule
// IDs (the counter-vector length).
func (m *Manager) RuleSpace() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}

// Full returns the prepared Algorithm 1 engine for the current epoch,
// rebuilding it lazily: the global Gram changes with nearly every flow
// update, so keeping it eagerly fresh would put an O(n³) term on every
// Apply. Detection paths that only need per-switch localization should
// prefer Sliced.
func (m *Manager) Full() (*core.Detector, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fullLocked()
}

func (m *Manager) fullLocked() (*core.Detector, error) {
	if m.fullOK && m.fullEpoch == m.epoch {
		return m.full, nil
	}
	var t0 time.Time
	if m.tel != nil {
		t0 = time.Now()
	}
	var prev *matrix.PreparedLS
	if m.full != nil {
		prev = m.full.Prepared() // reuse a matching symbolic analysis
	}
	d, err := core.NewDetectorReusing(m.fcmCur.H, m.opts, prev)
	if err != nil {
		return nil, fmt.Errorf("churn: full engine: %w", err)
	}
	if m.tel != nil {
		m.tel.FullRebuildSeconds.ObserveDuration(time.Since(t0).Nanoseconds())
		stats := d.PrepareStats()
		m.tel.PrepareSeconds.With("gram").Observe(stats.Gram.Seconds())
		m.tel.PrepareSeconds.With("factor").Observe(stats.Factor.Seconds())
		m.tel.PrepareSeconds.With("ordering").Observe(stats.Ordering.Seconds())
		m.tel.PrepareSeconds.With("symbolic").Observe(stats.Symbolic.Seconds())
		m.tel.PrepareSeconds.With("numeric").Observe(stats.Numeric.Seconds())
	}
	if m.det != nil {
		d.SetTelemetry(m.det, core.EngineFull)
	}
	m.full = d
	m.fullEpoch = m.epoch
	m.fullOK = true
	m.stats.FullRebuilds++
	return d, nil
}

// AffectedSince returns the ascending union of rule rows changed in
// epochs (since, current]: the rows a counter window whose baseline was
// snapshotted at epoch `since` must mask.
func (m *Manager) AffectedSince(since uint64) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.AffectedRules(since, m.epoch)
}

// Updates returns a copy of the epoch log, oldest first.
func (m *Manager) Updates() []Update {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Updates()
}

// Stats returns a snapshot of cumulative churn statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// DetectSliced runs the prepared Algorithm 2 engine on one period's
// counter vector (length RuleSpace, indexed by rule ID).
func (m *Manager) DetectSliced(y []float64) (core.SlicedOutcome, error) {
	return m.Sliced().Detect(y)
}

// DetectReconciled runs Algorithm 2 on a counter window whose baseline
// snapshot was taken at epoch `from`: the rows changed by any update
// the window spans are masked out of the equation system (via rank-one
// downdates of the prepared factors), so a mid-window rule change is
// reconciled instead of read as a forwarding anomaly. With from equal
// to the current epoch this is exactly DetectSliced.
//
// y may be shorter than the current RuleSpace when updates since `from`
// added rules: a window captured at the old epoch has no counters for
// the new rows. Those rule IDs are necessarily in AffectedRules(from,
// epoch) and hence masked, so the vector is zero-padded to the current
// space rather than rejected.
func (m *Manager) DetectReconciled(y []float64, from uint64) (core.SlicedOutcome, error) {
	m.mu.Lock()
	sliced := m.sliced
	space := len(m.rows)
	masked := m.log.AffectedRules(from, m.epoch)
	m.mu.Unlock()
	if len(y) < space {
		padded := make([]float64, space)
		copy(padded, y)
		y = padded
	}
	return sliced.DetectMasked(y, masked, m.opts)
}

// DetectFull runs the (lazily rebuilt) Algorithm 1 engine.
func (m *Manager) DetectFull(y []float64) (core.Result, error) {
	d, err := m.Full()
	if err != nil {
		return core.Result{}, err
	}
	return d.Detect(y)
}
