// Package wire provides the length-prefixed frame layer shared by the
// control-channel protocols in this repository (internal/openflow's
// switch channel and internal/cluster's coordinator/detector channel).
// A frame is a fixed 10-byte header — version(1) + type(1) +
// total-length(4, big-endian, header included) + xid(4, big-endian) —
// followed by the body. The reader refuses frames whose advertised
// length exceeds a per-connection cap, so a corrupt or hostile length
// prefix can never make the receiver allocate unbounded memory; both
// directions report the violation as a typed *SizeError.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// HeaderSize is version(1) + type(1) + length(4) + xid(4).
const HeaderSize = 10

// minBodyChunk is the first read of a body that outgrows the reader's
// buffer; later reads double what has arrived so far.
const minBodyChunk = 4096

// SizeError reports a frame that exceeds the connection's frame cap —
// on write, a body too large to frame; on read, a length prefix
// advertising more than the cap (or less than a bare header).
type SizeError struct {
	// Proto is the owning protocol's name ("openflow", "cluster"),
	// used as the error prefix.
	Proto string
	// Size is the offending total frame size in bytes (header
	// included).
	Size int
	// Limit is the connection's maximum frame size.
	Limit int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: frame of %d bytes outside [%d, %d]", e.Proto, e.Size, HeaderSize, e.Limit)
}

// Conn frames (type, xid, body) tuples over a transport connection.
// Writes are serialized by an internal mutex; a single reader is
// expected. The version byte and frame cap are fixed per connection.
type Conn struct {
	raw      net.Conn
	proto    string
	version  byte
	maxFrame int

	writeMu  sync.Mutex
	writeBuf []byte // reused frame assembly buffer, guarded by writeMu

	// hdr is the read-side header scratch. A local array would escape
	// through the io.Reader interface and cost one allocation per
	// frame; the single-reader contract makes a per-connection buffer
	// safe.
	hdr [HeaderSize]byte
}

// NewConn wraps a transport connection. proto names the owning
// protocol for error messages, version is the value written into (and
// required of) every frame's first byte, and maxFrame caps the total
// frame size in both directions.
func NewConn(raw net.Conn, proto string, version byte, maxFrame int) *Conn {
	return &Conn{raw: raw, proto: proto, version: version, maxFrame: maxFrame}
}

// Raw returns the underlying transport connection (for deadlines).
func (c *Conn) Raw() net.Conn { return c.raw }

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }

// WriteFrame sends one frame. A body that would push the total frame
// past the cap is refused with a *SizeError before anything is
// written. The frame is assembled in a per-connection buffer reused
// across calls (the body is copied; the caller keeps ownership), so a
// steady stream of frames allocates nothing after the first.
func (c *Conn) WriteFrame(msgType byte, xid uint32, body []byte) error {
	if total := HeaderSize + len(body); total > c.maxFrame {
		return &SizeError{Proto: c.proto, Size: total, Limit: c.maxFrame}
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.sendLocked(msgType, xid, append(c.frameLocked(), body...))
}

// WriteFrameFunc sends one frame whose body appendBody encodes straight
// into the connection's frame buffer: it is handed the buffer (header
// space already reserved) and returns it with the body appended, so an
// encoder never builds the body anywhere else first. appendBody runs
// under the write lock and must not write to this connection. An error
// from it, or a frame past the cap (*SizeError), sends nothing.
func (c *Conn) WriteFrameFunc(msgType byte, xid uint32, appendBody func(dst []byte) ([]byte, error)) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	frame, err := appendBody(c.frameLocked())
	if err != nil {
		return err
	}
	return c.sendLocked(msgType, xid, frame)
}

// frameLocked returns the reused frame buffer with the header's bytes
// reserved. Caller holds writeMu.
func (c *Conn) frameLocked() []byte {
	var reserved [HeaderSize]byte
	return append(c.writeBuf[:0], reserved[:]...)
}

// sendLocked fills in the header of an assembled frame and writes it,
// keeping whatever capacity assembling it grew. Caller holds writeMu.
func (c *Conn) sendLocked(msgType byte, xid uint32, frame []byte) error {
	c.writeBuf = frame[:0]
	if len(frame) > c.maxFrame {
		return &SizeError{Proto: c.proto, Size: len(frame), Limit: c.maxFrame}
	}
	frame[0] = c.version
	frame[1] = msgType
	binary.BigEndian.PutUint32(frame[2:], uint32(len(frame)))
	binary.BigEndian.PutUint32(frame[6:], xid)
	_, err := c.raw.Write(frame)
	return err
}

// ReadFrame receives the next frame, blocking until one arrives or the
// transport fails. A length prefix outside [HeaderSize, cap] is
// refused with a *SizeError without reading (or allocating) the body.
// The body is freshly allocated and owned by the caller; hot read
// loops should prefer ReadFrameInto.
func (c *Conn) ReadFrame() (msgType byte, xid uint32, body []byte, err error) {
	return c.readFrame(nil)
}

// ReadFrameInto is ReadFrame into caller-provided storage: the body is
// read into buf, which is grown (reallocated) only when its capacity
// is short.
//
// Aliasing contract: the returned body aliases buf's storage — it is
// valid only until the caller's next ReadFrameInto with the same
// buffer. A read loop keeps a single buffer alive across iterations
// and feeds the returned body back in:
//
//	var buf []byte
//	for {
//		t, xid, body, err := conn.ReadFrameInto(buf)
//		...
//		buf = body[:cap(body)] // recycle; body is dead after this
//	}
//
// Handlers that retain frame bytes past the next read (e.g. queueing
// raw messages) must copy them out, or use ReadFrame instead.
func (c *Conn) ReadFrameInto(buf []byte) (msgType byte, xid uint32, body []byte, err error) {
	return c.readFrame(buf)
}

func (c *Conn) readFrame(buf []byte) (msgType byte, xid uint32, body []byte, err error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.raw, hdr); err != nil {
		return 0, 0, nil, err
	}
	if hdr[0] != c.version {
		return 0, 0, nil, fmt.Errorf("%s: bad version %d", c.proto, hdr[0])
	}
	total := binary.BigEndian.Uint32(hdr[2:])
	if total < HeaderSize || int64(total) > int64(c.maxFrame) {
		return 0, 0, nil, &SizeError{Proto: c.proto, Size: int(total), Limit: c.maxFrame}
	}
	body, err = c.readBody(buf, int(total-HeaderSize))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%s: short body: %w", c.proto, err)
	}
	return hdr[1], binary.BigEndian.Uint32(hdr[6:]), body, nil
}

// readBody reads an n-byte body into buf's storage when it fits.
// Otherwise the storage grows geometrically as bytes actually arrive,
// so a length prefix the peer does not back with data costs a small
// multiple of what it did send, never the advertised n up front.
func (c *Conn) readBody(buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		_, err := io.ReadFull(c.raw, buf[:n])
		return buf[:n], err
	}
	body := buf[:0]
	for len(body) < n {
		have := len(body)
		step := min(n-have, max(have, minBodyChunk))
		body = slices.Grow(body, step)[:have+step]
		if _, err := io.ReadFull(c.raw, body[have:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}
