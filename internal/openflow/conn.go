package openflow

import (
	"net"

	"foces/internal/wire"
)

// maxMessageSize bounds a frame so a corrupt length prefix cannot make
// the reader allocate unbounded memory. Violations surface as a typed
// *wire.SizeError from both Read and Write.
const maxMessageSize = 16 << 20

// Conn frames Messages over a net.Conn using the shared length-prefix
// layer (internal/wire). Writes are serialized; a single reader is
// expected.
type Conn struct {
	w *wire.Conn
	// rbuf is the read side's body buffer, reused frame after frame
	// (single reader). Nothing Read returns aliases it: see
	// decodePayload.
	rbuf []byte
	// replies lends flow-stats replies their storage; see
	// FlowStatsReply.Release.
	replies replyFree
}

// NewConn wraps a transport connection.
func NewConn(raw net.Conn) *Conn {
	return &Conn{w: wire.NewConn(raw, "openflow", Version, maxMessageSize)}
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.w.Close() }

// Write sends one message, its payload encoded straight into the
// connection's frame buffer. A body that would exceed the frame cap is
// refused with a *wire.SizeError.
func (c *Conn) Write(m Message) error {
	if m.Payload == nil {
		return c.w.WriteFrame(byte(m.Type), m.XID, nil)
	}
	return c.w.WriteFrameFunc(byte(m.Type), m.XID, m.Payload.appendTo)
}

// Read receives the next message, blocking until one arrives or the
// transport fails. The returned message owns all of its memory, apart
// from a flow-stats reply, whose storage is on loan until it is
// released (FlowStatsReply.Release).
func (c *Conn) Read() (Message, error) {
	t, xid, body, err := c.w.ReadFrameInto(c.rbuf)
	if err != nil {
		return Message{}, err
	}
	c.rbuf = body[:cap(body)]
	m := Message{Type: MsgType(t), XID: xid}
	payload, err := decodePayload(m.Type, body, &c.replies)
	if err != nil {
		return Message{}, err
	}
	m.Payload = payload
	return m, nil
}
