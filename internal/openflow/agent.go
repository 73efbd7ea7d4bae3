package openflow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"foces/internal/dataplane"
	"foces/internal/header"
	"foces/internal/topo"
)

// Agent is the switch-side endpoint of the control channel: it owns one
// switch's flow table inside a dataplane.Network and answers feature,
// flow-mod and statistics messages. A compromised switch lies exactly
// as the threat model allows: table dumps and counters come from
// flowtable.Table, whose Dump/Counters already report the un-tampered
// view.
type Agent struct {
	network *dataplane.Network
	sw      topo.SwitchID

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Packet-in correlation: waiters keyed by the XID of an outstanding
	// TypePacketIn, released by the controller's TypePacketOut.
	piSeq     uint32
	piWaiters map[uint32]chan struct{}
}

// NewAgent creates an agent for one switch of the network.
func NewAgent(network *dataplane.Network, sw topo.SwitchID) (*Agent, error) {
	if _, err := network.Table(sw); err != nil {
		return nil, err
	}
	return &Agent{
		network:   network,
		sw:        sw,
		conns:     make(map[*Conn]struct{}),
		piWaiters: make(map[uint32]chan struct{}),
	}, nil
}

// RaisePacketIn notifies every connected controller of a table miss
// and blocks until some controller answers with a PacketOut (having
// installed whatever rules it wanted) or the timeout expires. It
// implements the switch side of reactive forwarding.
func (a *Agent) RaisePacketIn(inPort int, pkt header.Packet, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errors.New("openflow: agent closed")
	}
	if len(a.conns) == 0 {
		a.mu.Unlock()
		return fmt.Errorf("openflow: switch %d has no controller connection", a.sw)
	}
	a.piSeq++
	xid := a.piSeq
	done := make(chan struct{})
	a.piWaiters[xid] = done
	conns := make([]*Conn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.piWaiters, xid)
		a.mu.Unlock()
	}()
	msg := Message{Type: TypePacketIn, XID: xid, Payload: &PacketIn{
		Switch: a.sw,
		InPort: inPort,
		Packet: pkt,
	}}
	sent := false
	for _, c := range conns {
		if err := c.Write(msg); err == nil {
			sent = true
		}
	}
	if !sent {
		return fmt.Errorf("openflow: switch %d could not reach any controller", a.sw)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("openflow: packet-in %d on switch %d timed out after %v", xid, a.sw, timeout)
	}
}

// Switch reports the agent's switch.
func (a *Agent) Switch() topo.SwitchID { return a.sw }

// ServeConn handles one control connection until it closes. It is safe
// to serve multiple connections concurrently.
func (a *Agent) ServeConn(raw net.Conn) error {
	conn := NewConn(raw)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		return errors.New("openflow: agent closed")
	}
	a.conns[conn] = struct{}{}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		conn.Close()
	}()
	for {
		msg, err := conn.Read()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return err
		}
		if err := a.handle(conn, msg); err != nil {
			return err
		}
	}
}

// Go serves the connection on a managed goroutine.
func (a *Agent) Go(raw net.Conn) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		// Transport errors end the session; the peer observes the close.
		_ = a.ServeConn(raw)
	}()
}

// Close terminates all sessions and waits for their goroutines.
func (a *Agent) Close() {
	a.mu.Lock()
	a.closed = true
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

func (a *Agent) handle(conn *Conn, msg Message) error {
	switch msg.Type {
	case TypeHello:
		return conn.Write(Message{Type: TypeHello, XID: msg.XID})
	case TypeEchoRequest:
		return conn.Write(Message{Type: TypeEchoReply, XID: msg.XID})
	case TypeFeaturesRequest:
		s, err := a.network.Topology().Switch(a.sw)
		if err != nil {
			return a.sendError(conn, msg.XID, ErrCodeBadRequest, err.Error())
		}
		tbl, err := a.network.Table(a.sw)
		if err != nil {
			return a.sendError(conn, msg.XID, ErrCodeBadRequest, err.Error())
		}
		return conn.Write(Message{Type: TypeFeaturesReply, XID: msg.XID, Payload: &FeaturesReply{
			Switch:   a.sw,
			NumPorts: uint32(s.NumPorts()),
			NumRules: uint32(tbl.Len()),
		}})
	case TypeFlowMod:
		fm, ok := msg.Payload.(*FlowMod)
		if !ok {
			return a.sendError(conn, msg.XID, ErrCodeBadRequest, "flow-mod payload missing")
		}
		tbl, err := a.network.Table(a.sw)
		if err != nil {
			return a.sendError(conn, msg.XID, ErrCodeFlowModFailed, err.Error())
		}
		switch fm.Command {
		case FlowAdd:
			if err := tbl.Install(fm.Rule); err != nil {
				return a.sendError(conn, msg.XID, ErrCodeFlowModFailed, err.Error())
			}
		case FlowDelete:
			if err := tbl.Remove(fm.Rule.ID); err != nil {
				return a.sendError(conn, msg.XID, ErrCodeFlowModFailed, err.Error())
			}
		}
		// FlowMod is acked with an empty Hello-style echo so installs
		// can be awaited synchronously.
		return conn.Write(Message{Type: TypeEchoReply, XID: msg.XID})
	case TypeFlowStatsRequest:
		tbl, err := a.network.Table(a.sw)
		if err != nil {
			return a.sendError(conn, msg.XID, ErrCodeBadRequest, err.Error())
		}
		return conn.w.WriteFrameFunc(byte(TypeFlowStatsReply), msg.XID, func(dst []byte) ([]byte, error) {
			return appendTableFlowStats(dst, a.sw, tbl), nil
		})
	case TypePacketOut:
		a.mu.Lock()
		done, ok := a.piWaiters[msg.XID]
		if ok {
			delete(a.piWaiters, msg.XID)
		}
		a.mu.Unlock()
		if ok {
			close(done)
		}
		return nil
	case TypePortStatsRequest:
		pc, ok := a.network.PortStats()[a.sw]
		if !ok {
			return a.sendError(conn, msg.XID, ErrCodeBadRequest, fmt.Sprintf("no port stats for switch %d", a.sw))
		}
		reply := &PortStatsReply{Switch: a.sw, Stats: make([]PortStat, len(pc.Rx))}
		for p := range pc.Rx {
			reply.Stats[p] = PortStat{Port: p, Rx: pc.Rx[p], Tx: pc.Tx[p]}
		}
		return conn.Write(Message{Type: TypePortStatsReply, XID: msg.XID, Payload: reply})
	default:
		return a.sendError(conn, msg.XID, ErrCodeBadRequest, "unsupported message "+msg.Type.String())
	}
}

func (a *Agent) sendError(conn *Conn, xid uint32, code uint16, text string) error {
	return conn.Write(Message{Type: TypeError, XID: xid, Payload: &ErrorMsg{Code: code, Text: text}})
}
