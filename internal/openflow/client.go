package openflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"foces/internal/flowtable"
)

// DefaultTimeout bounds each synchronous client request.
const DefaultTimeout = 5 * time.Second

// Client is the controller/collector-side endpoint: synchronous typed
// requests over one control connection, with XID matching. Safe for
// concurrent use.
//
// Requests are written by one long-lived writer goroutine, started
// beside the reader and stopped by Close. A caller hands its request
// over and waits for the reply; both waits race its context, so a peer
// that stopped reading (dead agent behind a live pipe) cannot stall the
// caller past its deadline. A request whose caller gave up is either
// never written or written whole: the writer sets no deadline, so a
// timeout never leaves half a frame on a connection that stays in use,
// and the late reply is dropped as an abandoned XID. A write that fails
// is reported to its caller; a failed transport also ends the reader,
// which fails every request still pending.
type Client struct {
	conn    *Conn
	timeout time.Duration

	mu      sync.Mutex
	nextXID uint32
	// pending maps each awaited XID to the slot its outcome is delivered
	// on: a channel of capacity 1, sent to exactly once per registration
	// by whoever removed the XID — the reader (reply, or transport
	// failure) or the writer (write error) — so the send never blocks.
	pending map[uint32]chan result
	// free holds slots whose result was received: nothing else can still
	// refer to them, so the next request reuses one. A slot abandoned on a
	// context error is dropped instead — the reader may already have
	// claimed it for a late reply.
	free []chan result

	writeq chan Message   // hand-off to writeLoop; unbuffered, so a request is either taken or never sent
	stop   chan struct{}  // closed by Close
	loops  sync.WaitGroup // readLoop and writeLoop

	readErr error
	closed  bool

	packetInHandler func(*PacketIn, uint32)
	handlerWG       sync.WaitGroup
}

// result is one request's outcome: the reply, or why there is none.
type result struct {
	msg Message
	err error
}

// SetPacketInHandler registers a callback for unsolicited packet-in
// messages. The handler runs on its own goroutine (so it may issue
// requests on this client) and receives the message XID to echo in
// SendPacketOut once it has installed rules. Must be set before the
// first packet-in arrives.
func (c *Client) SetPacketInHandler(h func(pi *PacketIn, xid uint32)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.packetInHandler = h
}

// SendPacketOut releases a packet-in by echoing its XID. Fire and
// forget: the agent does not reply.
func (c *Client) SendPacketOut(xid uint32) error {
	return c.conn.Write(Message{Type: TypePacketOut, XID: xid})
}

// NewClient wraps a transport connection and starts the reader and the
// writer.
func NewClient(raw net.Conn, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	c := &Client{
		conn:    NewConn(raw),
		timeout: timeout,
		pending: make(map[uint32]chan result),
		writeq:  make(chan Message),
		stop:    make(chan struct{}),
	}
	c.loops.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return c
}

// Close terminates the connection and waits for the reader, the writer
// and any packet-in handlers; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	if first {
		close(c.stop)
	}
	c.loops.Wait()
	c.handlerWG.Wait()
	return err
}

// claim removes xid from pending and returns its slot, or nil when the
// request was abandoned (or already answered).
func (c *Client) claim(xid uint32) chan result {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.pending[xid]
	delete(c.pending, xid)
	return slot
}

func (c *Client) readLoop() {
	defer c.loops.Done()
	for {
		msg, err := c.conn.Read()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			failed := result{err: fmt.Errorf("openflow: connection failed: %w", err)}
			for xid, slot := range c.pending {
				slot <- failed
				delete(c.pending, xid)
			}
			c.mu.Unlock()
			return
		}
		if msg.Type == TypePacketIn {
			// Agent-initiated; never matches a pending request. Run the
			// handler off the read loop so it can issue requests here.
			pi, ok := msg.Payload.(*PacketIn)
			c.mu.Lock()
			h := c.packetInHandler
			c.mu.Unlock()
			if ok && h != nil {
				c.handlerWG.Add(1)
				xid := msg.XID
				go func() {
					defer c.handlerWG.Done()
					h(pi, xid)
				}()
			}
			continue
		}
		if slot := c.claim(msg.XID); slot != nil {
			slot <- result{msg: msg}
		} else if fr, ok := msg.Payload.(*FlowStatsReply); ok {
			// Nobody waits for this XID any more: its storage goes
			// straight back for the next reply.
			fr.Release()
		}
		// Other unsolicited messages are dropped.
	}
}

// writeLoop writes handed-over requests until Close. A write error goes
// to the request's caller, if it is still waiting.
func (c *Client) writeLoop() {
	defer c.loops.Done()
	for {
		select {
		case req := <-c.writeq:
			err := c.conn.Write(req)
			if err == nil {
				continue
			}
			if slot := c.claim(req.XID); slot != nil {
				slot <- result{err: err}
			}
		case <-c.stop:
			return
		}
	}
}

// roundTrip sends a request and waits for its matching reply, bounded
// by the client's default timeout.
func (c *Client) roundTrip(t MsgType, payload Payload) (Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	return c.roundTripCtx(ctx, t, payload)
}

// roundTripCtx sends a request and waits for its matching reply until
// the context expires. It starts no goroutine and, once the free list
// is warm, allocates nothing of its own.
func (c *Client) roundTripCtx(ctx context.Context, t MsgType, payload Payload) (Message, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, errors.New("openflow: client closed")
	}
	if err := c.readErr; err != nil {
		// The reader is gone: no reply could ever be matched.
		c.mu.Unlock()
		return Message{}, fmt.Errorf("openflow: connection failed: %w", err)
	}
	c.nextXID++
	xid := c.nextXID
	var slot chan result
	if n := len(c.free); n > 0 {
		slot, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		slot = make(chan result, 1)
	}
	c.pending[xid] = slot
	c.mu.Unlock()

	select {
	case c.writeq <- Message{Type: t, XID: xid, Payload: payload}:
	case <-ctx.Done():
		c.claim(xid)
		return Message{}, fmt.Errorf("openflow: %v request: %w", t, ctx.Err())
	case <-c.stop:
		c.claim(xid)
		return Message{}, errors.New("openflow: client closed")
	}
	select {
	case res := <-slot:
		c.mu.Lock()
		c.free = append(c.free, slot)
		c.mu.Unlock()
		if res.err != nil {
			return Message{}, res.err
		}
		if em, isErr := res.msg.Payload.(*ErrorMsg); isErr {
			return Message{}, em
		}
		return res.msg, nil
	case <-ctx.Done():
		c.claim(xid)
		return Message{}, fmt.Errorf("openflow: %v reply: %w", t, ctx.Err())
	}
}

// Hello performs the version handshake.
func (c *Client) Hello() error {
	reply, err := c.roundTrip(TypeHello, nil)
	if err != nil {
		return err
	}
	if reply.Type != TypeHello {
		return fmt.Errorf("openflow: hello answered with %v", reply.Type)
	}
	return nil
}

// Echo verifies liveness.
func (c *Client) Echo() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	return c.EchoContext(ctx)
}

// EchoContext verifies liveness under a caller-supplied deadline — the
// collector's cheap reinstatement probe for quarantined switches.
func (c *Client) EchoContext(ctx context.Context) error {
	reply, err := c.roundTripCtx(ctx, TypeEchoRequest, nil)
	if err != nil {
		return err
	}
	if reply.Type != TypeEchoReply {
		return fmt.Errorf("openflow: echo answered with %v", reply.Type)
	}
	return nil
}

// Features fetches the switch description.
func (c *Client) Features() (*FeaturesReply, error) {
	reply, err := c.roundTrip(TypeFeaturesRequest, nil)
	if err != nil {
		return nil, err
	}
	fr, ok := reply.Payload.(*FeaturesReply)
	if !ok {
		return nil, fmt.Errorf("openflow: features answered with %v", reply.Type)
	}
	return fr, nil
}

// InstallRule sends a FlowMod(add) and waits for the ack.
func (c *Client) InstallRule(r flowtable.Rule) error {
	_, err := c.roundTrip(TypeFlowMod, &FlowMod{Command: FlowAdd, Rule: r})
	return err
}

// DeleteRule sends a FlowMod(delete) and waits for the ack.
func (c *Client) DeleteRule(id int) error {
	_, err := c.roundTrip(TypeFlowMod, &FlowMod{Command: FlowDelete, Rule: flowtable.Rule{ID: id}})
	return err
}

// FlowStats fetches the switch's rule counters.
func (c *Client) FlowStats() (*FlowStatsReply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	return c.FlowStatsContext(ctx)
}

// FlowStatsContext fetches the switch's rule counters under a
// caller-supplied deadline, so a slow or dead switch costs the
// collector exactly its per-request budget and nothing more. The reply
// is on loan: Release it once read, and the next reply reuses its
// storage.
func (c *Client) FlowStatsContext(ctx context.Context) (*FlowStatsReply, error) {
	reply, err := c.roundTripCtx(ctx, TypeFlowStatsRequest, nil)
	if err != nil {
		return nil, err
	}
	fr, ok := reply.Payload.(*FlowStatsReply)
	if !ok {
		return nil, fmt.Errorf("openflow: flow stats answered with %v", reply.Type)
	}
	return fr, nil
}

// PortStats fetches the switch's port counters.
func (c *Client) PortStats() (*PortStatsReply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	return c.PortStatsContext(ctx)
}

// PortStatsContext fetches the switch's port counters under a
// caller-supplied deadline.
func (c *Client) PortStatsContext(ctx context.Context) (*PortStatsReply, error) {
	reply, err := c.roundTripCtx(ctx, TypePortStatsRequest, nil)
	if err != nil {
		return nil, err
	}
	pr, ok := reply.Payload.(*PortStatsReply)
	if !ok {
		return nil, fmt.Errorf("openflow: port stats answered with %v", reply.Type)
	}
	return pr, nil
}
