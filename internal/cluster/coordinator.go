// Package cluster shards FOCES sliced detection (Algorithm 2) across
// detector nodes, splitting a coordinator — which owns the
// flow-counter baseline, the churn epoch log and window assembly —
// from N detectors that hold replicated per-switch slice engines and
// answer window shards with partial verdicts.
//
// The design rests on one invariant, pinned by internal/churn's delta
// tests: a replica that refactors the same base H the coordinator's
// churn manager refactored and replays the same rank-one row vectors
// in the same order holds a bitwise-identical factor, so every float
// of every partial verdict equals what the coordinator's own engine
// would have produced. Partial verdicts are merged through the same
// core.MergeSliceResults the local SlicedDetector uses; a distributed
// run's report is therefore byte-for-byte the single-process report —
// under node failure and requeue included — never an approximation.
//
// Shards (one per per-switch slice) map to nodes by consistent
// hashing with virtual nodes, so losing a node moves only its own
// shards. Baseline replication is epoch-versioned and incremental:
// steady-state churn ships the manager's rank-one update/downdate
// deltas; a joining node — or one whose delta chain broke on a
// fill-rejected factor — gets a full base snapshot and replays
// forward. Nodes heartbeat; the coordinator evicts on timeout,
// requeues in-flight shards to survivors, and (when capacity is
// exhausted) falls back to running windows on its own engines, which
// by the invariant above changes nothing but latency.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"foces/internal/churn"
	"foces/internal/core"
	"foces/internal/telemetry"
	"foces/internal/topo"
	"foces/internal/wire"
)

// Config tunes a coordinator.
type Config struct {
	// Peers are the detector node addresses dialed at construction.
	Peers []string
	// HeartbeatTimeout evicts a node not heard from for this long;
	// zero selects 4× DefaultHeartbeat.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds connection establishment and the handshake;
	// zero selects 5s.
	DialTimeout time.Duration
	// WindowTimeout bounds one distributed window before the
	// coordinator gives up and runs it locally; zero selects 60s.
	WindowTimeout time.Duration
	// VNodes is the virtual-node count per member; zero selects
	// defaultVNodes.
	VNodes int
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * DefaultHeartbeat
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WindowTimeout <= 0 {
		c.WindowTimeout = 60 * time.Second
	}
	return c
}

// Coordinator owns the detection baseline and fans sliced-detection
// windows across detector nodes. It implements foces.SlicedRunner, so
// System.RunWith(obs, coord) routes the Algorithm 2 stage of every
// window — clean, lagged, switches missing — through the cluster while
// everything else (full engine, report assembly) stays local and
// unchanged.
type Coordinator struct {
	mgr  *churn.Manager
	opts core.Options // construction options replicas build their engines with
	cfg  Config
	tel  *telemetry.ClusterMetrics

	mu         sync.Mutex
	peers      map[string]*peer
	ring       *ring
	configured int
	seq        uint64
	pending    map[uint64]*windowCall
	evictions  uint64
	requeued   uint64
	closed     bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// peer is one detector node connection.
type peer struct {
	addr string
	raw  net.Conn
	conn *wire.Conn

	// sendMu orders baseline/delta shipments before the windows that
	// depend on them and guards the sync bookkeeping below.
	sendMu      sync.Mutex
	shards      map[topo.SwitchID]shardSync
	syncedEpoch uint64
	everSynced  bool

	lastSeen atomic.Int64 // unix nanos of the last frame received
	alive    bool         // guarded by Coordinator.mu
}

// shardSync is what the node holds for one shard.
type shardSync struct {
	baseEpoch uint64
	nChanges  int
}

// windowCall is one in-flight distributed window. It retains every
// shard's payload so an eviction can requeue the unanswered remainder
// to surviving nodes under the same sequence number.
type windowCall struct {
	seq  uint64
	opts core.Options

	mu      sync.Mutex
	shards  map[topo.SwitchID]windowShard
	owners  map[topo.SwitchID]string
	results map[topo.SwitchID]core.Result
	err     error
	settled bool
	done    chan struct{}
}

func (call *windowCall) fail(err error) {
	call.mu.Lock()
	defer call.mu.Unlock()
	if call.settled {
		return
	}
	call.err = err
	call.settled = true
	close(call.done)
}

// New connects a coordinator to its detector nodes. Every configured
// peer must come up (the caller started them); nodes joining later go
// through AddPeer. tel may be nil.
func New(mgr *churn.Manager, opts core.Options, cfg Config, tel *telemetry.ClusterMetrics) (*Coordinator, error) {
	c := &Coordinator{
		mgr:     mgr,
		opts:    opts,
		cfg:     cfg.withDefaults(),
		tel:     tel,
		peers:   make(map[string]*peer),
		ring:    newRing(cfg.VNodes),
		pending: make(map[uint64]*windowCall),
		stop:    make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		if err := c.AddPeer(addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.wg.Add(1)
	go c.monitor()
	return c, nil
}

// AddPeer dials a detector node, performs the handshake, and adds it
// to the shard ring — the join-mid-epoch path. The node's first
// window triggers baseline snapshots for each shard it now owns;
// subsequent epochs ship deltas.
func (c *Coordinator) AddPeer(addr string) error {
	raw, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	p := &peer{
		addr:   addr,
		raw:    raw,
		conn:   wire.NewConn(raw, "cluster", Version, maxFrame),
		shards: make(map[topo.SwitchID]shardSync),
	}
	if err := c.handshake(p); err != nil {
		raw.Close()
		return err
	}
	p.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		raw.Close()
		return fmt.Errorf("cluster: coordinator is closed")
	}
	if old, ok := c.peers[addr]; ok && old.alive {
		c.mu.Unlock()
		raw.Close()
		return fmt.Errorf("cluster: peer %s already connected", addr)
	}
	p.alive = true
	c.peers[addr] = p
	c.ring.Add(addr)
	c.configured++
	c.mu.Unlock()
	c.wg.Add(1)
	go c.readLoop(p)
	c.sendAssign(p)
	c.updateGauges()
	return nil
}

// handshake sends HELLO and waits for the ack (tolerating heartbeats
// that may already be ticking), bounded by the dial timeout.
func (c *Coordinator) handshake(p *peer) error {
	body, err := encodeGob(&helloMsg{
		Proto: protoName,
		Space: c.mgr.RuleSpace(),
		Epoch: c.mgr.Epoch(),
		Opts:  c.opts,
	})
	if err != nil {
		return err
	}
	if err := p.conn.WriteFrame(msgHello, 1, body); err != nil {
		return fmt.Errorf("cluster: hello %s: %w", p.addr, err)
	}
	deadline := time.Now().Add(c.cfg.DialTimeout)
	p.raw.SetReadDeadline(deadline)
	defer p.raw.SetReadDeadline(time.Time{})
	for {
		t, _, ackBody, err := p.conn.ReadFrame()
		if err != nil {
			return fmt.Errorf("cluster: handshake %s: %w", p.addr, err)
		}
		switch t {
		case msgHelloAck:
			var ack helloAckMsg
			return decodeGob(ackBody, &ack)
		case msgHeartbeat:
			continue
		default:
			return fmt.Errorf("cluster: handshake %s: unexpected message type %d", p.addr, t)
		}
	}
}

// sendAssign ships the (informative) current shard assignment.
func (c *Coordinator) sendAssign(p *peer) {
	slices := c.mgr.Slices()
	var owned []topo.SwitchID
	c.mu.Lock()
	for _, sl := range slices {
		if c.ring.Owner(sl.Switch) == p.addr {
			owned = append(owned, sl.Switch)
		}
	}
	c.mu.Unlock()
	body, err := encodeGob(&assignMsg{Switches: owned})
	if err != nil {
		return
	}
	p.sendMu.Lock()
	p.conn.WriteFrame(msgAssign, 0, body)
	p.sendMu.Unlock()
}

// Close tears the coordinator down. In-flight windows fail over to
// local execution.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	calls := make([]*windowCall, 0, len(c.pending))
	for _, call := range c.pending {
		calls = append(calls, call)
	}
	c.mu.Unlock()
	close(c.stop)
	for _, p := range peers {
		p.raw.Close()
	}
	for _, call := range calls {
		call.fail(fmt.Errorf("cluster: coordinator closed"))
	}
	c.wg.Wait()
	return nil
}

func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-c.cfg.HeartbeatTimeout).UnixNano()
			c.mu.Lock()
			var stale []*peer
			for _, p := range c.peers {
				if p.alive && p.lastSeen.Load() < cutoff {
					stale = append(stale, p)
				}
			}
			c.mu.Unlock()
			for _, p := range stale {
				c.evict(p, fmt.Errorf("cluster: heartbeat timeout"))
			}
		}
	}
}

func (c *Coordinator) readLoop(p *peer) {
	defer c.wg.Done()
	// One frame buffer per peer session; every case below decodes
	// (copies) before the next iteration overwrites it.
	var buf []byte
	for {
		t, _, body, err := p.conn.ReadFrameInto(buf)
		if err != nil {
			c.evict(p, err)
			return
		}
		buf = body[:cap(body)]
		p.lastSeen.Store(time.Now().UnixNano())
		switch t {
		case msgHeartbeat:
		case msgVerdict:
			v, err := decodeVerdict(body)
			if err != nil {
				c.evict(p, err)
				return
			}
			c.deliver(v)
		case msgError:
			var e errorMsg
			if err := decodeGob(body, &e); err != nil {
				c.evict(p, err)
				return
			}
			if e.Seq != 0 {
				c.mu.Lock()
				call := c.pending[e.Seq]
				c.mu.Unlock()
				if call != nil {
					call.fail(fmt.Errorf("cluster: node %s: %s", p.addr, e.Text))
				}
			} else {
				// A baseline the node cannot ingest means its replica
				// chain is unusable; evict and let a reconnect resync.
				c.evict(p, fmt.Errorf("cluster: node %s: %s", p.addr, e.Text))
				return
			}
		default:
			c.evict(p, fmt.Errorf("cluster: unexpected message type %d from %s", t, p.addr))
			return
		}
	}
}

// deliver records one verdict's partial results; the call completes
// when every shard has answered.
func (c *Coordinator) deliver(v *verdictMsg) {
	c.mu.Lock()
	call := c.pending[v.Seq]
	c.mu.Unlock()
	if call == nil {
		return // late verdict for a window that already settled
	}
	call.mu.Lock()
	defer call.mu.Unlock()
	if call.settled {
		return
	}
	for _, sh := range v.Shards {
		if _, dup := call.results[sh.Switch]; !dup {
			call.results[sh.Switch] = sh.Res
		}
	}
	if len(call.results) == len(call.shards) {
		call.settled = true
		close(call.done)
	}
}

// evict removes a dead node from the ring and requeues its unanswered
// in-flight shards to the surviving owners.
func (c *Coordinator) evict(p *peer, cause error) {
	c.mu.Lock()
	if !p.alive || c.closed {
		c.mu.Unlock()
		return
	}
	p.alive = false
	c.ring.Remove(p.addr)
	c.evictions++
	calls := make([]*windowCall, 0, len(c.pending))
	for _, call := range c.pending {
		calls = append(calls, call)
	}
	c.mu.Unlock()
	p.raw.Close()
	if c.tel != nil {
		c.tel.Evictions.Inc()
	}
	c.updateGauges()
	for _, call := range calls {
		c.requeue(call, p.addr)
	}
}

// requeue re-dispatches a call's unanswered shards that were owned by
// the dead node. With no capacity left the call fails, which sends
// the window to the coordinator's local engines — same verdict,
// degraded latency.
func (c *Coordinator) requeue(call *windowCall, deadAddr string) {
	call.mu.Lock()
	if call.settled {
		call.mu.Unlock()
		return
	}
	groups := make(map[*peer][]windowShard)
	moved := 0
	for sw, owner := range call.owners {
		if owner != deadAddr {
			continue
		}
		if _, answered := call.results[sw]; answered {
			continue
		}
		c.mu.Lock()
		newOwner := c.ring.Owner(sw)
		p := c.peers[newOwner]
		c.mu.Unlock()
		if newOwner == "" || p == nil || !p.alive {
			call.mu.Unlock()
			call.fail(fmt.Errorf("cluster: no live node for shard %d", sw))
			return
		}
		call.owners[sw] = newOwner
		groups[p] = append(groups[p], call.shards[sw])
		moved++
	}
	call.mu.Unlock()
	if moved == 0 {
		return
	}
	c.mu.Lock()
	c.requeued += uint64(moved)
	c.mu.Unlock()
	if c.tel != nil {
		c.tel.RequeuedShards.Add(uint64(moved))
	}
	for p, shards := range groups {
		if err := c.sendTo(p, call, shards); err != nil {
			c.evict(p, err)
		}
	}
}

// sendTo ships one window's shard group to a node, first bringing the
// node's replica chain for those shards current (full snapshot when
// the base generation moved or the node never held the shard, deltas
// otherwise). Baselines and the window ride the same ordered
// connection, so the node always detects against the right epoch.
func (c *Coordinator) sendTo(p *peer, call *windowCall, shards []windowShard) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if err := c.syncShardsLocked(p, shards); err != nil {
		return err
	}
	w := &windowMsg{Seq: call.seq, Opts: call.opts, Shards: shards}
	return p.conn.WriteFrame(msgWindow, 0, encodeWindow(w))
}

// syncShardsLocked (caller holds p.sendMu) brings the node current for
// the given shards. Steady state — no churn since the last sync and
// every shard already held — is a single epoch comparison.
func (c *Coordinator) syncShardsLocked(p *peer, shards []windowShard) error {
	cur := c.mgr.Epoch()
	if p.everSynced && p.syncedEpoch == cur {
		missing := false
		for _, sh := range shards {
			if _, ok := p.shards[sh.Switch]; !ok {
				missing = true
				break
			}
		}
		if !missing {
			return nil
		}
	}
	rep := c.mgr.ReplicaStates()
	for _, sh := range shards {
		rs := rep[sh.Switch]
		if rs == nil {
			return fmt.Errorf("cluster: no replica state for shard %d", sh.Switch)
		}
		st, held := p.shards[sh.Switch]
		switch {
		case !held || st.baseEpoch != rs.BaseEpoch || st.nChanges > len(rs.Changes):
			b := baselineMsg{
				Switch:    rs.Switch,
				BaseEpoch: rs.BaseEpoch,
				BaseRows:  rs.BaseRows,
				BaseH:     csrToWire(rs.BaseH),
			}
			for _, ch := range rs.Changes {
				b.Changes = append(b.Changes, toChangeMsg(ch))
			}
			body, err := encodeGob(&b)
			if err != nil {
				return err
			}
			if err := p.conn.WriteFrame(msgBaseline, 0, body); err != nil {
				return err
			}
			p.shards[sh.Switch] = shardSync{baseEpoch: rs.BaseEpoch, nChanges: len(rs.Changes)}
			if c.tel != nil {
				c.tel.BaselineSyncs.With("snapshot").Inc()
			}
		case st.nChanges < len(rs.Changes):
			rk := rank1Msg{Switch: rs.Switch}
			for _, ch := range rs.Changes[st.nChanges:] {
				rk.Changes = append(rk.Changes, toChangeMsg(ch))
			}
			body, err := encodeGob(&rk)
			if err != nil {
				return err
			}
			if err := p.conn.WriteFrame(msgRank1, 0, body); err != nil {
				return err
			}
			p.shards[sh.Switch] = shardSync{baseEpoch: rs.BaseEpoch, nChanges: len(rs.Changes)}
			if c.tel != nil {
				c.tel.BaselineSyncs.With("delta").Inc()
			}
		}
	}
	p.syncedEpoch = cur
	p.everSynced = true
	return nil
}

// DetectMasked distributes one window — the foces.SlicedRunner
// surface. masked lists the global rule rows to leave out (empty on a
// clean window); each dispatched shard carries its slice-local share of
// the mask, and a slice the mask blinds (core.Slice.LocalMask) is not
// dispatched at all.
func (c *Coordinator) DetectMasked(y []float64, masked []int, opts core.Options) (core.SlicedOutcome, error) {
	t0 := time.Now()
	slices := c.mgr.Slices()
	space := c.mgr.RuleSpace()
	if len(y) != space {
		return core.SlicedOutcome{}, fmt.Errorf("cluster: counter vector has %d entries, baseline expects %d", len(y), space)
	}
	mask, err := core.RowMask(space, masked)
	if err != nil {
		return core.SlicedOutcome{}, err
	}
	// The coordinator gathers per-slice sub-vectors itself — exactly
	// the gather the local SlicedDetector performs — so nodes receive
	// only their shards' share of the window.
	var skipped []bool
	if mask != nil {
		skipped = make([]bool, len(slices))
	}
	shards := make([]windowShard, 0, len(slices))
	for i := range slices {
		sl := &slices[i]
		var local []int
		if mask != nil {
			if local, skipped[i] = sl.LocalMask(mask, nil); skipped[i] {
				continue
			}
		}
		sub := make([]float64, len(sl.RuleRows))
		for k, rid := range sl.RuleRows {
			sub[k] = y[rid]
		}
		shards = append(shards, windowShard{Switch: sl.Switch, Sub: sub, Mask: local})
	}
	if len(shards) == 0 {
		// Nothing to dispatch; the local engine owns the verdict on an
		// empty or fully blinded window.
		return c.localFallback(y, masked, opts)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return core.SlicedOutcome{}, fmt.Errorf("cluster: coordinator is closed")
	}
	if c.ring.Size() == 0 {
		c.mu.Unlock()
		return c.localFallback(y, masked, opts)
	}
	c.seq++
	call := &windowCall{
		seq:     c.seq,
		opts:    opts,
		shards:  make(map[topo.SwitchID]windowShard, len(shards)),
		owners:  make(map[topo.SwitchID]string, len(shards)),
		results: make(map[topo.SwitchID]core.Result, len(shards)),
		done:    make(chan struct{}),
	}
	groups := make(map[*peer][]windowShard)
	ok := true
	for _, sh := range shards {
		owner := c.ring.Owner(sh.Switch)
		p := c.peers[owner]
		if p == nil || !p.alive {
			ok = false
			break
		}
		call.shards[sh.Switch] = sh
		call.owners[sh.Switch] = owner
		groups[p] = append(groups[p], sh)
	}
	if !ok {
		c.mu.Unlock()
		return c.localFallback(y, masked, opts)
	}
	c.pending[call.seq] = call
	c.mu.Unlock()

	for p, g := range groups {
		if err := c.sendTo(p, call, g); err != nil {
			c.evict(p, err)
		}
	}

	timer := time.NewTimer(c.cfg.WindowTimeout)
	defer timer.Stop()
	select {
	case <-call.done:
	case <-timer.C:
		call.fail(fmt.Errorf("cluster: window %d timed out", call.seq))
	}
	c.mu.Lock()
	delete(c.pending, call.seq)
	c.mu.Unlock()

	if call.err != nil {
		// Capacity exhausted or a node failed the window: run it on the
		// coordinator's own engines. By the replication invariant this
		// yields the identical outcome.
		return c.localFallback(y, masked, opts)
	}
	results := make([]core.Result, len(slices))
	call.mu.Lock()
	for i, sl := range slices {
		results[i] = call.results[sl.Switch] // zero for an undispatched slice; the merge leaves those out
	}
	call.mu.Unlock()
	out := core.MergeSliceResults(slices, results, skipped)
	if c.tel != nil {
		c.tel.WindowSeconds.Observe(time.Since(t0).Seconds())
	}
	return out, nil
}

// localFallback runs a window on the coordinator's own engines — the
// degraded path when no detector capacity is live.
func (c *Coordinator) localFallback(y []float64, masked []int, opts core.Options) (core.SlicedOutcome, error) {
	return c.mgr.Sliced().DetectMasked(y, masked, opts)
}

// PeerStatus is one node's row in Status.
type PeerStatus struct {
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Shards int    `json:"shards"`
}

// Status is the coordinator's /status block.
type Status struct {
	Configured     int          `json:"configured"`
	Live           int          `json:"live"`
	Degraded       bool         `json:"degraded"`
	Shards         int          `json:"shards"`
	Evictions      uint64       `json:"evictions"`
	RequeuedShards uint64       `json:"requeuedShards"`
	Peers          []PeerStatus `json:"peers"`
}

// Status snapshots cluster health. Degraded means live capacity has
// dropped below the configured node set (including to zero, where
// windows run locally).
func (c *Coordinator) Status() Status {
	slices := c.mgr.Slices()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Configured:     c.configured,
		Evictions:      c.evictions,
		RequeuedShards: c.requeued,
	}
	owned := make(map[string]int)
	if c.ring.Size() > 0 {
		st.Shards = len(slices)
		for _, sl := range slices {
			owned[c.ring.Owner(sl.Switch)]++
		}
	}
	for _, p := range c.peers {
		if p.alive {
			st.Live++
		}
		st.Peers = append(st.Peers, PeerStatus{Addr: p.addr, Alive: p.alive, Shards: owned[p.addr]})
	}
	st.Degraded = st.Live < st.Configured || st.Live == 0
	return st
}

// updateGauges refreshes the membership gauges after a join or
// eviction.
func (c *Coordinator) updateGauges() {
	if c.tel == nil {
		return
	}
	st := c.Status()
	c.tel.Nodes.Set(float64(st.Live))
	c.tel.Shards.Set(float64(st.Shards))
	if st.Degraded {
		c.tel.Degraded.Set(1)
	} else {
		c.tel.Degraded.Set(0)
	}
}
