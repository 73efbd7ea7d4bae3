package collector

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"foces/internal/telemetry"
	"foces/internal/topo"
)

// ErrAssemblerClosed is returned by Push after Close.
var ErrAssemblerClosed = errors.New("collector: window assembler closed")

// Update is one pushed cumulative counter snapshot from a switch agent.
// Push copies Counters: the pusher keeps its map and may change or reuse
// it as soon as Push returns.
type Update struct {
	Switch   topo.SwitchID
	Counters map[int]uint64 // cumulative per-rule packet counts
	At       time.Time      // push timestamp; zero selects time.Now
}

// StreamConfig tunes the streaming ingestion layer.
type StreamConfig struct {
	// QueueCapacity bounds each switch's pending-snapshot queue. When a
	// push arrives at a full queue the newest queued snapshot is
	// replaced (coalesced): counters are cumulative, so a newer snapshot
	// supersedes an unconsumed older one without losing traffic — the
	// eventual delta simply spans both. Zero selects 64.
	QueueCapacity int
	// WindowBuffer bounds the completed-window channel; when the
	// consumer falls behind, the oldest completed window is dropped
	// (and counted). Zero selects 16.
	WindowBuffer int
	// Sampler optionally drives adaptive per-switch sampling: only due
	// switches gate window completion, and backed-off switches' rows
	// are masked (Missing) between their samples. Nil samples every
	// switch every window.
	Sampler *AdaptiveSampler
	// RuleSpace presizes the assembler's dense per-rule scratch (the
	// merge accumulator and duplicate-detection stamps) to the FCM's
	// rule-ID space. It is a hint only: the scratch auto-grows when
	// churn installs rules beyond it. Zero starts empty and grows on
	// first use.
	RuleSpace int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.WindowBuffer <= 0 {
		c.WindowBuffer = 16
	}
	if c.RuleSpace < 0 {
		c.RuleSpace = 0
	}
	return c
}

// StreamStats is a snapshot of the assembler's ingestion counters.
type StreamStats struct {
	// Pushes counts accepted Push calls.
	Pushes uint64 `json:"pushes"`
	// Updates counts individual counter entries ingested across pushes.
	Updates uint64 `json:"updates"`
	// Coalesced counts snapshots merged into a newer one at queue
	// capacity (bounded-queue backpressure).
	Coalesced uint64 `json:"coalesced"`
	// DroppedUpdates counts queued snapshots discarded by Forget after
	// a collection gap invalidated their baseline.
	DroppedUpdates uint64 `json:"droppedUpdates"`
	// DroppedWindows counts completed windows evicted because the
	// consumer fell behind the WindowBuffer.
	DroppedWindows uint64 `json:"droppedWindows"`
	// Windows counts completed windows.
	Windows uint64 `json:"windows"`
	// Resets counts detected counter resets (switch restarts), one per
	// switch per window.
	Resets uint64 `json:"resets"`
	// DuplicateRules counts rule IDs reported by more than one switch
	// (counter shadowing), one per rule per window.
	DuplicateRules uint64 `json:"duplicateRules"`
	// QueueDepth is the current total number of queued snapshots.
	QueueDepth int `json:"queueDepth"`
	// MaxQueueDepth is the high-water total queue depth — with bounded
	// per-switch queues it can never exceed switches × QueueCapacity.
	MaxQueueDepth int `json:"maxQueueDepth"`
}

// ProbeSample is a backed-off switch's multi-window counter delta. It
// is consumed for baseline continuity and drift checking only — a
// delta spanning Span windows cannot join a single window's equation
// system, so the switch stays in Window.Missing.
type ProbeSample struct {
	// Total is the summed counter delta across the spanned windows.
	Total uint64 `json:"total"`
	// Span is how many windows the delta covers.
	Span uint64 `json:"span"`
}

// Window is one completed detection window: the merged per-window
// deltas, the switches to mask, the epoch facts Run reconciles with,
// and streaming-side accounting.
type Window struct {
	// Seq numbers windows from 1.
	Seq uint64
	// Deltas holds merged per-window counter deltas keyed by global
	// rule ID; on a rule reported by several switches the lowest switch
	// ID's delta wins.
	Deltas map[int]uint64
	// Missing lists (sorted) switches whose rows must be masked this
	// window: marked missing by the pump, silent, freshly (re)primed,
	// reset, or backed off by the sampler.
	Missing []topo.SwitchID
	// Resets lists switches whose counters went backwards this window.
	Resets []topo.SwitchID
	// DuplicateRules lists rule IDs reported by more than one switch.
	DuplicateRules []int
	// Epoch is the rule-set epoch the window was assembled under.
	Epoch uint64
	// Straddled maps contributing switches whose delta window spans one
	// or more rule updates to their baseline epoch.
	Straddled map[topo.SwitchID]uint64
	// Contributed maps each contributing switch to its total merged
	// counter delta (the sampler's stability signal).
	Contributed map[topo.SwitchID]uint64
	// Probes maps backed-off switches to their multi-window samples.
	Probes map[topo.SwitchID]ProbeSample
	// Opened is when the first push of this window arrived (zero if the
	// window completed without any push).
	Opened time.Time
	// Completed is when the window completed.
	Completed time.Time

	// store backs the window's maps and slices when it was assembled
	// from the assembler's free list; Release hands them back. Nil for
	// zero values and hand-built windows, on which Release is a no-op.
	store    *windowStore
	storeGen uint32
}

// WindowAssembler turns pushed cumulative counter snapshots into
// completed detection windows. Each switch owns a bounded FIFO queue of
// pending snapshots; a window completes as soon as every due switch has
// contributed a snapshot or been marked missing, at which point all
// queued snapshots are consumed through the assembler's DeltaTracker —
// sequential advances over queued snapshots sum to exactly the delta
// one AdvanceEpoch at the last snapshot would have produced, with
// identical reset (window missing, baseline kept) and epoch-straddle
// (earliest baseline epoch wins) outcomes.
//
// Safe for concurrent use: any number of pushers, one consumer draining
// Windows().
type WindowAssembler struct {
	mu           sync.Mutex
	cfg          StreamConfig
	deltas       *DeltaTracker
	order        []topo.SwitchID
	queues       map[topo.SwitchID][][]ruleCount // pending snapshots, each the assembler's own copy
	spare        [][]ruleCount                   // recycled snapshot storage for Push to copy into
	missing      map[topo.SwitchID]bool
	due          map[topo.SwitchID]bool
	lastConsumed map[topo.SwitchID]uint64 // seq of last consumed snapshot
	seq          uint64                   // open window's sequence number
	depth        int                      // total queued snapshots
	openedAt     time.Time
	closed       bool
	stats        StreamStats
	out          chan Window
	tel          *telemetry.StreamMetrics
	now          func() time.Time // test hook; nil = time.Now

	// Dense per-window merge scratch, reused across windows: acc
	// accumulates one switch's telescoped deltas; ownerStamp/dupStamp
	// mark rule IDs already claimed (and already reported duplicate)
	// this window, stamped with wgen so starting a window is O(1).
	acc        *denseDeltas
	ownerStamp []uint32
	dupStamp   []uint32
	wgen       uint32
	free       *windowFree // released window stores
}

// NewWindowAssembler builds an assembler over the given switch set.
func NewWindowAssembler(switches []topo.SwitchID, cfg StreamConfig) *WindowAssembler {
	cfg = cfg.withDefaults()
	a := &WindowAssembler{
		cfg:          cfg,
		deltas:       NewDeltaTracker(),
		queues:       make(map[topo.SwitchID][][]ruleCount, len(switches)),
		missing:      make(map[topo.SwitchID]bool),
		due:          make(map[topo.SwitchID]bool, len(switches)),
		lastConsumed: make(map[topo.SwitchID]uint64, len(switches)),
		out:          make(chan Window, cfg.WindowBuffer),
		acc:          newDenseDeltas(cfg.RuleSpace),
		ownerStamp:   make([]uint32, cfg.RuleSpace),
		dupStamp:     make([]uint32, cfg.RuleSpace),
		wgen:         1,
		free:         &windowFree{max: cfg.WindowBuffer + 1},
	}
	for _, sw := range switches {
		if _, dup := a.queues[sw]; dup {
			continue
		}
		a.queues[sw] = nil
		a.order = append(a.order, sw)
	}
	sort.Slice(a.order, func(i, j int) bool { return a.order[i] < a.order[j] })
	a.seq = 1
	a.planWindowLocked()
	return a
}

// SetTelemetry mirrors the assembler's counters into a telemetry
// metric set (pass nil to detach).
func (a *WindowAssembler) SetTelemetry(m *telemetry.StreamMetrics) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tel = m
}

// planWindowLocked fixes the open window's due set. Caller holds a.mu.
func (a *WindowAssembler) planWindowLocked() {
	clear(a.due)
	if a.cfg.Sampler == nil {
		for _, sw := range a.order {
			a.due[sw] = true
		}
		return
	}
	for _, sw := range a.cfg.Sampler.Plan() {
		if _, known := a.queues[sw]; known {
			a.due[sw] = true
		}
	}
	if len(a.due) == 0 {
		// Never let a window wait on nobody: fall back to everyone.
		for _, sw := range a.order {
			a.due[sw] = true
		}
	}
	if a.tel != nil {
		a.tel.BackedOffSwitches.Set(float64(len(a.order) - len(a.due)))
	}
}

// Due returns the (sorted) switches the open window is waiting on — the
// set a streaming pump should fetch this round.
func (a *WindowAssembler) Due() []topo.SwitchID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]topo.SwitchID, 0, len(a.due))
	for _, sw := range a.order {
		if a.due[sw] {
			out = append(out, sw)
		}
	}
	return out
}

// SetEpoch tags snapshots consumed from now on with the given rule-set
// epoch. Call it whenever a rule update is applied; windows whose
// baseline predates it report the straddle (Window.Straddled).
func (a *WindowAssembler) SetEpoch(e uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.deltas.SetEpoch(e)
}

// Epoch reports the current rule-set epoch.
func (a *WindowAssembler) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deltas.Epoch()
}

// Push enqueues a copy of one cumulative snapshot, completing the open
// window if this was the last due contribution. Unknown switches are
// rejected; a full queue coalesces by replacing its newest pending
// snapshot. The copy goes into recycled storage the assembler owns
// (handed back when the snapshot is consumed, forgotten or coalesced
// over), so steady pushing allocates nothing.
func (a *WindowAssembler) Push(u Update) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrAssemblerClosed
	}
	q, known := a.queues[u.Switch]
	if !known {
		return fmt.Errorf("collector: push from unknown switch %d", u.Switch)
	}
	if u.At.IsZero() {
		u.At = a.clock()
	}
	a.stats.Pushes++
	a.stats.Updates += uint64(len(u.Counters))
	if len(q) >= a.cfg.QueueCapacity {
		q[len(q)-1] = appendSnapshot(q[len(q)-1][:0], u.Counters)
		a.stats.Coalesced++
		if a.tel != nil {
			a.tel.Coalesced.Add(1)
		}
	} else {
		var store []ruleCount
		if n := len(a.spare); n > 0 {
			store, a.spare[n-1] = a.spare[n-1], nil
			a.spare = a.spare[:n-1]
		}
		a.queues[u.Switch] = append(q, appendSnapshot(store, u.Counters))
		a.depth++
		if a.depth > a.stats.MaxQueueDepth {
			a.stats.MaxQueueDepth = a.depth
		}
	}
	if a.openedAt.IsZero() {
		a.openedAt = u.At
	}
	if a.tel != nil {
		a.tel.Pushes.Add(1)
		a.tel.Updates.Add(uint64(len(u.Counters)))
		a.tel.QueueDepth.Set(float64(a.depth))
	}
	a.tryCompleteLocked()
	return nil
}

// recycleLocked empties a switch's queue, handing every queued
// snapshot's storage back for Push to reuse. The queue keeps its own
// backing array but no reference into it. Caller holds a.mu.
func (a *WindowAssembler) recycleLocked(sw topo.SwitchID) {
	q := a.queues[sw]
	for i, snap := range q {
		a.spare = append(a.spare, snap[:0])
		q[i] = nil
	}
	a.queues[sw] = q[:0]
}

// MarkMissing records that a switch cannot contribute to the open
// window (its poll failed or it is quarantined), completing the window
// if it was the last due contribution outstanding. Pair with Forget
// when the failure opened a baseline gap.
func (a *WindowAssembler) MarkMissing(switches ...topo.SwitchID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	for _, sw := range switches {
		if _, known := a.queues[sw]; known {
			a.missing[sw] = true
		}
	}
	a.tryCompleteLocked()
}

// Forget drops a switch's delta baseline and any queued snapshots. Call
// it when a collection gap opened (failed poll): queued snapshots
// predate the gap, so consuming them after it would let the next delta
// silently span the outage.
func (a *WindowAssembler) Forget(sw topo.SwitchID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.deltas.Forget(sw)
	if q := a.queues[sw]; len(q) > 0 {
		a.stats.DroppedUpdates += uint64(len(q))
		if a.tel != nil {
			a.tel.DroppedUpdates.Add(uint64(len(q)))
		}
		a.depth -= len(q)
		a.recycleLocked(sw)
	}
}

// Windows returns the completed-window channel. It is closed by Close.
func (a *WindowAssembler) Windows() <-chan Window { return a.out }

// Stats returns a snapshot of the ingestion counters.
func (a *WindowAssembler) Stats() StreamStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.stats
	out.QueueDepth = a.depth
	return out
}

// Flush force-completes the open window if anything is pending in it,
// marking non-contributing due switches missing. Returns whether a
// window was emitted.
func (a *WindowAssembler) Flush() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	return a.flushLocked()
}

func (a *WindowAssembler) flushLocked() bool {
	pending := len(a.missing) > 0
	if !pending {
		for _, q := range a.queues {
			if len(q) > 0 {
				pending = true
				break
			}
		}
	}
	if !pending {
		return false
	}
	a.completeLocked()
	return true
}

// Close flushes any pending window and closes the Windows channel.
// Further pushes return ErrAssemblerClosed.
func (a *WindowAssembler) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.flushLocked()
	a.closed = true
	close(a.out)
}

func (a *WindowAssembler) clock() time.Time {
	if a.now != nil {
		return a.now()
	}
	return time.Now()
}

// tryCompleteLocked completes the open window once every due switch has
// contributed a snapshot or been marked missing. Caller holds a.mu.
func (a *WindowAssembler) tryCompleteLocked() {
	for sw := range a.due {
		if !a.missing[sw] && len(a.queues[sw]) == 0 {
			return
		}
	}
	a.completeLocked()
}

// completeLocked assembles the open window from every queued snapshot,
// emits it, and opens the next window. Caller holds a.mu.
//
// The window's storage comes from the free list of released stores and
// all merge scratch (the per-switch accumulator and the owner/duplicate
// stamps) is reused across windows, so in the steady state — stable
// switch and rule sets, a consumer that Releases windows — completion
// performs no per-window allocation.
func (a *WindowAssembler) completeLocked() {
	s := a.free.get()
	w := Window{
		Seq:    a.seq,
		Epoch:  a.deltas.Epoch(),
		Opened: a.openedAt,
	}
	s.attach(&w)
	// Start a fresh owner/duplicate generation; the ~4-billionth window
	// wraps the stamp space and pays one memset.
	a.wgen++
	if a.wgen == 0 {
		clear(a.ownerStamp)
		clear(a.dupStamp)
		a.wgen = 1
	}
	for _, sw := range a.order {
		consumed := a.queues[sw]
		a.depth -= len(consumed)
		forcedMissing := a.missing[sw]
		if len(consumed) == 0 {
			// Failed, silent, or backed off: rows masked this window.
			w.Missing = append(w.Missing, sw)
			continue
		}
		// Consume the queue in arrival order. Sub-deltas telescope:
		// their sum equals the single delta one poll at the final
		// snapshot would have produced.
		a.acc.reset()
		var (
			usable      bool
			sawReset    bool
			sawStraddle bool
			firstFrom   uint64
		)
		for _, snap := range consumed {
			reset, primed, fromEpoch, straddles := a.deltas.advanceEpochInto(sw, snap, a.acc)
			if straddles && !sawStraddle {
				sawStraddle, firstFrom = true, fromEpoch
			}
			if reset {
				// Mid-window restart: everything accumulated so far spans
				// the reset; the snapshot re-baselined, so later queued
				// snapshots still cannot yield a full-window delta.
				sawReset = true
				a.acc.reset()
				usable = false
				continue
			}
			if !primed {
				continue
			}
			usable = true
		}
		a.recycleLocked(sw)
		span := a.seq - a.lastConsumed[sw]
		a.lastConsumed[sw] = a.seq
		if sawReset {
			w.Resets = append(w.Resets, sw)
			w.Missing = append(w.Missing, sw)
			continue
		}
		if forcedMissing || !usable {
			w.Missing = append(w.Missing, sw)
			continue
		}
		accTotal := a.acc.total
		if span > 1 {
			// Backed-off switch's sample: the delta spans several windows
			// and cannot join this window's equation system; keep it as a
			// rate probe and mask the rows.
			if w.Probes == nil {
				w.Probes = s.probes
			}
			w.Probes[sw] = ProbeSample{Total: accTotal, Span: span}
			w.Missing = append(w.Missing, sw)
			continue
		}
		if sawStraddle {
			if w.Straddled == nil {
				w.Straddled = s.straddled
			}
			w.Straddled[sw] = firstFrom
		}
		// Merge this switch's accumulated deltas: first switch (a.order
		// ascending) to report a rule ID owns it, later reporters flag
		// it duplicate — exactly the map-based owner/dupSeen semantics.
		for _, rid := range a.acc.touched {
			if rid >= len(a.ownerStamp) {
				a.growStampsLocked(rid + 1)
			}
			if a.ownerStamp[rid] == a.wgen {
				if a.dupStamp[rid] != a.wgen {
					a.dupStamp[rid] = a.wgen
					w.DuplicateRules = append(w.DuplicateRules, rid)
				}
				continue
			}
			a.ownerStamp[rid] = a.wgen
			w.Deltas[rid] = a.acc.vals[rid]
		}
		if w.Contributed == nil {
			w.Contributed = s.contributed
		}
		w.Contributed[sw] = accTotal
	}
	sort.Ints(w.DuplicateRules)
	w.Completed = a.clock()
	a.stats.Windows++
	a.stats.Resets += uint64(len(w.Resets))
	a.stats.DuplicateRules += uint64(len(w.DuplicateRules))
	if a.tel != nil {
		a.tel.Windows.Add(1)
		a.tel.Resets.Add(uint64(len(w.Resets)))
		a.tel.DuplicateRules.Add(uint64(len(w.DuplicateRules)))
		if !w.Opened.IsZero() {
			a.tel.WindowLagSeconds.Observe(w.Completed.Sub(w.Opened).Seconds())
		}
		a.tel.QueueDepth.Set(float64(a.depth))
	}
	a.emitLocked(w)
	clear(a.missing)
	a.openedAt = time.Time{}
	a.seq++
	a.planWindowLocked()
}

// growStampsLocked widens the owner/duplicate stamp arrays to at least
// n rule slots (churn installed rules beyond the presized space).
// Caller holds a.mu.
func (a *WindowAssembler) growStampsLocked(n int) {
	next := len(a.ownerStamp) * 2
	if next < n {
		next = n
	}
	if next < 64 {
		next = 64
	}
	owner := make([]uint32, next)
	copy(owner, a.ownerStamp)
	a.ownerStamp = owner
	dup := make([]uint32, next)
	copy(dup, a.dupStamp)
	a.dupStamp = dup
}

// emitLocked delivers a completed window, evicting the oldest buffered
// window when the consumer has fallen behind. Caller holds a.mu, which
// serialises producers; the consumer only ever removes, so the retry
// after an eviction cannot fail.
func (a *WindowAssembler) emitLocked(w Window) {
	select {
	case a.out <- w:
		return
	default:
	}
	select {
	case old := <-a.out:
		// The evicted window was never seen by the consumer; reclaim
		// its storage here.
		old.Release()
		a.stats.DroppedWindows++
		if a.tel != nil {
			a.tel.DroppedWindows.Add(1)
		}
	default:
	}
	select {
	case a.out <- w:
	default:
		w.Release()
		a.stats.DroppedWindows++
		if a.tel != nil {
			a.tel.DroppedWindows.Add(1)
		}
	}
}
