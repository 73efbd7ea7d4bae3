package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"foces/internal/churn"
	"foces/internal/core"
	"foces/internal/topo"
	"foces/internal/wire"
)

// NodeConfig tunes a detector node.
type NodeConfig struct {
	// Heartbeat is the interval between heartbeats to the coordinator;
	// zero selects DefaultHeartbeat.
	Heartbeat time.Duration
}

// DefaultHeartbeat is the node heartbeat interval. The coordinator's
// eviction timeout must comfortably exceed it.
const DefaultHeartbeat = 250 * time.Millisecond

// Node is one detector of a sharded cluster: it holds replicated
// per-switch slice engines (kept current by baseline snapshots and
// rank-one deltas from the coordinator) and answers window shards with
// partial verdicts. Windows are processed sequentially in the
// connection's read loop — a node is a fixed unit of detection
// capacity, which is what makes multi-node speedup honest.
//
// A node accepts any number of coordinator connections (a restarted
// coordinator simply reconnects and re-ships whatever it believes the
// node is missing); shard state is shared across connections.
type Node struct {
	ln  net.Listener
	cfg NodeConfig

	mu     sync.Mutex
	opts   core.Options
	shards map[topo.SwitchID]*nodeShard
	conns  map[net.Conn]bool
	closed bool

	wg sync.WaitGroup

	// windowDelay (test hook) delays each window's processing, widening
	// the in-flight window for kill-mid-window tests.
	windowDelay atomic.Int64
	// windowsSeen counts windows processed (test observability).
	windowsSeen atomic.Int64
	// snapshotsSeen / deltasSeen count baseline shipments by kind
	// (test observability for the snapshot-then-delta join contract).
	snapshotsSeen atomic.Int64
	deltasSeen    atomic.Int64
}

// nodeShard is one replicated slice engine and its sync position.
type nodeShard struct {
	baseEpoch uint64
	nChanges  int
	rows      []int
	engine    *core.Detector
}

// NewNode starts a detector node listening on addr (host:port; port 0
// picks a free one — see Addr).
func NewNode(addr string, cfg NodeConfig) (*Node, error) {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node listen: %w", err)
	}
	n := &Node{
		ln:     ln,
		cfg:    cfg,
		shards: make(map[topo.SwitchID]*nodeShard),
		conns:  make(map[net.Conn]bool),
	}
	n.wg.Add(1)
	go n.accept()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Shards reports how many slice engines the node currently holds.
func (n *Node) Shards() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.shards)
}

// Close stops the node: the listener and every coordinator connection
// are closed and the serve loops drained.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	err := n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return err
}

func (n *Node) accept() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			raw.Close()
			return
		}
		n.conns[raw] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serve(raw)
	}
}

func (n *Node) serve(raw net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, raw)
		n.mu.Unlock()
		raw.Close()
	}()
	wc := wire.NewConn(raw, "cluster", Version, maxFrame)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(n.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := wc.WriteFrame(msgHeartbeat, 0, nil); err != nil {
					return
				}
			}
		}
	}()
	// One frame buffer lives for the whole session: handle consumes
	// each body synchronously (the codecs copy what they keep), so the
	// next read may overwrite it.
	var buf []byte
	for {
		t, xid, body, err := wc.ReadFrameInto(buf)
		if err != nil {
			return
		}
		if err := n.handle(wc, t, xid, body); err != nil {
			return
		}
		buf = body[:cap(body)]
	}
}

// handle processes one frame; a returned error tears the connection
// down (protocol violations), while per-message failures are reported
// to the coordinator as msgError and keep the session alive.
func (n *Node) handle(wc *wire.Conn, t byte, xid uint32, body []byte) error {
	switch t {
	case msgHello:
		var h helloMsg
		if err := decodeGob(body, &h); err != nil {
			return err
		}
		if h.Proto != protoName {
			return fmt.Errorf("cluster: handshake for protocol %q", h.Proto)
		}
		n.mu.Lock()
		n.opts = h.Opts
		n.mu.Unlock()
		ack, err := encodeGob(&helloAckMsg{Node: n.Addr()})
		if err != nil {
			return err
		}
		return wc.WriteFrame(msgHelloAck, xid, ack)

	case msgAssign:
		return nil // informative; authoritative state arrives as baselines

	case msgBaseline:
		var b baselineMsg
		if err := decodeGob(body, &b); err != nil {
			return err
		}
		if err := n.installBaseline(&b); err != nil {
			return n.sendError(wc, 0, err)
		}
		n.snapshotsSeen.Add(1)
		return nil

	case msgRank1:
		var rk rank1Msg
		if err := decodeGob(body, &rk); err != nil {
			return err
		}
		if err := n.applyRank1(&rk); err != nil {
			return n.sendError(wc, 0, err)
		}
		n.deltasSeen.Add(int64(len(rk.Changes)))
		return nil

	case msgWindow:
		w, err := decodeWindow(body)
		if err != nil {
			return err
		}
		if d := n.windowDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		v, err := n.runWindow(w)
		if err != nil {
			return n.sendError(wc, w.Seq, err)
		}
		n.windowsSeen.Add(1)
		return wc.WriteFrame(msgVerdict, 0, encodeVerdict(v))

	case msgHeartbeat:
		return nil

	default:
		return fmt.Errorf("cluster: node received unexpected message type %d", t)
	}
}

func (n *Node) sendError(wc *wire.Conn, seq uint64, cause error) error {
	body, err := encodeGob(&errorMsg{Seq: seq, Text: cause.Error()})
	if err != nil {
		return err
	}
	return wc.WriteFrame(msgError, 0, body)
}

// installBaseline replaces one shard from a full snapshot: refactor
// the base H and replay the shipped changes in order — the manager's
// exact factor lifecycle, so the engine is bitwise identical to the
// coordinator's serving engine.
func (n *Node) installBaseline(b *baselineMsg) error {
	h, err := wireToCSR(b.BaseH)
	if err != nil {
		return fmt.Errorf("cluster: baseline switch %d: %w", b.Switch, err)
	}
	rs := &churn.ReplicaState{
		Switch:    b.Switch,
		BaseEpoch: b.BaseEpoch,
		BaseRows:  b.BaseRows,
		BaseH:     h,
	}
	for _, ch := range b.Changes {
		rs.Changes = append(rs.Changes, fromChangeMsg(ch))
	}
	n.mu.Lock()
	opts := n.opts
	n.mu.Unlock()
	eng, rows, err := churn.ReplayReplica(rs, opts)
	if err != nil {
		return fmt.Errorf("cluster: baseline switch %d: %w", b.Switch, err)
	}
	n.mu.Lock()
	n.shards[b.Switch] = &nodeShard{
		baseEpoch: b.BaseEpoch,
		nChanges:  len(rs.Changes),
		rows:      rows,
		engine:    eng,
	}
	n.mu.Unlock()
	return nil
}

// applyRank1 advances one shard by incremental deltas.
func (n *Node) applyRank1(rk *rank1Msg) error {
	n.mu.Lock()
	s := n.shards[rk.Switch]
	opts := n.opts
	n.mu.Unlock()
	if s == nil {
		return fmt.Errorf("cluster: rank-one delta for unknown shard %d (need a baseline first)", rk.Switch)
	}
	eng, rows := s.engine, s.rows
	applied := 0
	for _, chm := range rk.Changes {
		var err error
		eng, rows, err = churn.ReplayChange(eng, rows, fromChangeMsg(chm), opts)
		if err != nil {
			return fmt.Errorf("cluster: shard %d delta at epoch %d: %w", rk.Switch, chm.Epoch, err)
		}
		applied++
	}
	n.mu.Lock()
	n.shards[rk.Switch] = &nodeShard{
		baseEpoch: s.baseEpoch,
		nChanges:  s.nChanges + applied,
		rows:      rows,
		engine:    eng,
	}
	n.mu.Unlock()
	return nil
}

// runWindow executes one window's shards against the local engines.
// The coordinator already gathered each shard's counter sub-vector
// and slice-local mask (empty on a clean window), so this is pure
// prepared-engine work — the same call the local SlicedDetector makes
// for these slices.
func (n *Node) runWindow(w *windowMsg) (*verdictMsg, error) {
	v := &verdictMsg{Seq: w.Seq}
	for _, sh := range w.Shards {
		n.mu.Lock()
		s := n.shards[sh.Switch]
		n.mu.Unlock()
		if s == nil {
			return nil, fmt.Errorf("cluster: window names shard %d this node does not hold", sh.Switch)
		}
		res, err := s.engine.DetectMasked(sh.Sub, sh.Mask, w.Opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", sh.Switch, err)
		}
		v.Shards = append(v.Shards, verdictShard{Switch: sh.Switch, Res: res})
	}
	return v, nil
}

// SetWindowDelay (test hook) makes every subsequent window take at
// least d, widening the in-flight window for failure-injection tests.
func (n *Node) SetWindowDelay(d time.Duration) { n.windowDelay.Store(int64(d)) }

// WindowsProcessed reports how many window messages this node has
// answered.
func (n *Node) WindowsProcessed() int64 { return n.windowsSeen.Load() }

// SyncCounts reports how many baseline snapshots and individual
// rank-one deltas the node has ingested — the observable half of the
// snapshot-then-delta replication contract.
func (n *Node) SyncCounts() (snapshots, deltas int64) {
	return n.snapshotsSeen.Load(), n.deltasSeen.Load()
}
