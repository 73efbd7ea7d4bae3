package openflow

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/wire"
)

// streamConn is an in-memory net.Conn whose read side is a fixed byte
// stream; writes are discarded.
type streamConn struct{ r *bytes.Reader }

func (c streamConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c streamConn) Close() error                     { return nil }
func (c streamConn) LocalAddr() net.Addr              { return nil }
func (c streamConn) RemoteAddr() net.Addr             { return nil }
func (c streamConn) SetDeadline(time.Time) error      { return nil }
func (c streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c streamConn) SetWriteDeadline(time.Time) error { return nil }

// samplePayloads is one message per MsgType, bodyless ones included.
func samplePayloads(tb testing.TB) []Message {
	tb.Helper()
	match, err := layout.MatchExact(layout.Wildcard(), header.FieldDstIP, header.IPv4(10, 0, 0, 2))
	if err != nil {
		tb.Fatal(err)
	}
	pkt := match.AnyPacket()
	return []Message{
		{Type: TypeHello, XID: 1},
		{Type: TypeEchoRequest, XID: 2},
		{Type: TypeEchoReply, XID: 3},
		{Type: TypeFeaturesRequest, XID: 4},
		{Type: TypeFeaturesReply, XID: 5, Payload: &FeaturesReply{Switch: 3, NumPorts: 4, NumRules: 56}},
		{Type: TypeFlowMod, XID: 6, Payload: &FlowMod{Command: FlowAdd, Rule: flowtable.Rule{
			ID: 7, Priority: 10, Match: match, Action: flowtable.Action{Type: flowtable.ActionOutput, Port: 2}}}},
		{Type: TypeFlowMod, XID: 7, Payload: &FlowMod{Command: FlowDelete, Rule: flowtable.Rule{ID: 7}}},
		{Type: TypeFlowStatsRequest, XID: 8},
		{Type: TypeFlowStatsReply, XID: 9, Payload: &FlowStatsReply{Switch: 3, Stats: []FlowStat{{RuleID: 7, Packets: 42}, {RuleID: -1, Packets: 1 << 40}}}},
		{Type: TypePortStatsRequest, XID: 10},
		{Type: TypePortStatsReply, XID: 11, Payload: &PortStatsReply{Switch: 3, Stats: []PortStat{{Port: 0, Rx: 1, Tx: 2}, {Port: 5, Rx: 50, Tx: 60}}}},
		{Type: TypeError, XID: 12, Payload: &ErrorMsg{Code: ErrCodeFlowModFailed, Text: "duplicate rule id 7"}},
		{Type: TypePacketIn, XID: 13, Payload: &PacketIn{Switch: 3, InPort: -1, Packet: pkt}},
		{Type: TypePacketOut, XID: 14},
	}
}

// frameOf is the message's wire frame.
func frameOf(tb testing.TB, m Message) []byte {
	tb.Helper()
	var reserved [wire.HeaderSize]byte
	frame := reserved[:]
	if m.Payload != nil {
		var err error
		if frame, err = m.Payload.appendTo(frame); err != nil {
			tb.Fatal(err)
		}
	}
	frame[0] = Version
	frame[1] = byte(m.Type)
	binary.BigEndian.PutUint32(frame[2:], uint32(len(frame)))
	binary.BigEndian.PutUint32(frame[6:], m.XID)
	return frame
}

// encoded is the payload's body, nil for a bodyless message.
func encoded(tb testing.TB, p Payload) []byte {
	tb.Helper()
	if p == nil {
		return nil
	}
	b, err := p.appendTo(nil)
	if err != nil {
		tb.Fatalf("re-encoding a decoded %T: %v", p, err)
	}
	return b
}

// FuzzConnRead feeds arbitrary bytes through Conn.Read, which decodes
// every frame out of one reused body buffer. Nothing may panic; the
// buffer may not outgrow what the input backs with bytes, whatever its
// length prefixes claim; and no decoded message may alias the buffer:
// each must still encode to the same bytes after later frames have
// overwritten it and the test has scribbled over what is left. Every
// other flow-stats reply is released, so the next one is decoded into
// its storage: each must re-encode to exactly its own frame's body.
func FuzzConnRead(f *testing.F) {
	// testdata/fuzz/FuzzConnRead holds one frame per MsgType, each also
	// truncated by a byte and over-long by one; added here are what a
	// single frame cannot show.
	var all []byte
	for _, m := range samplePayloads(f) {
		all = append(all, frameOf(f, m)...)
	}
	f.Add(all) // consecutive valid frames, long bodies before short ones
	lying := frameOf(f, Message{Type: TypeFlowStatsReply, XID: 1, Payload: &FlowStatsReply{}})
	binary.BigEndian.PutUint32(lying[2:], maxMessageSize) // claims 16 MiB, sends 8 bytes
	f.Add(lying)
	// A released three-entry reply, then a one-entry reply recycled from
	// its storage: no stale tail may show.
	f.Add(append(frameOf(f, Message{Type: TypeFlowStatsReply, XID: 1, Payload: &FlowStatsReply{Switch: 2,
		Stats: []FlowStat{{RuleID: 1, Packets: 10}, {RuleID: 2, Packets: 20}, {RuleID: 3, Packets: 30}}}}),
		frameOf(f, Message{Type: TypeFlowStatsReply, XID: 2, Payload: &FlowStatsReply{Switch: 2,
			Stats: []FlowStat{{RuleID: 9, Packets: 90}}}})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewConn(streamConn{bytes.NewReader(data)})
		type kept struct {
			msg  Message
			body []byte
		}
		var msgs []kept
		flowStats := 0
		for {
			msg, err := conn.Read()
			if err != nil {
				break
			}
			body := encoded(t, msg.Payload)
			if fr, ok := msg.Payload.(*FlowStatsReply); ok {
				// The frame's body still heads the read buffer.
				if !bytes.HasPrefix(conn.rbuf, body) {
					t.Fatalf("flow-stats reply %d re-encodes to %x, not its frame's body", flowStats, body)
				}
				flowStats++
				if flowStats%2 == 1 {
					fr.Release()
					continue
				}
			}
			msgs = append(msgs, kept{msg, body})
		}
		if limit := max(2*len(data), 4096); cap(conn.rbuf) > limit {
			t.Fatalf("%d input bytes grew the read buffer to %d", len(data), cap(conn.rbuf))
		}
		scribble := conn.rbuf[:cap(conn.rbuf)]
		for i := range scribble {
			scribble[i] ^= 0xA5
		}
		for i, k := range msgs {
			if again := encoded(t, k.msg.Payload); !bytes.Equal(again, k.body) {
				t.Fatalf("message %d (%v) changed with the read buffer: it aliases it\n  was %x\n  now %x", i, k.msg.Type, k.body, again)
			}
		}
	})
}

// FuzzPayloadRoundTrip: whatever body decodes as a payload of some type
// must survive append-encode → decode unchanged, and the append form
// must do just that — leave what dst already holds alone and add the
// same bytes as encoding onto nil.
func FuzzPayloadRoundTrip(f *testing.F) {
	for _, m := range samplePayloads(f) {
		body := encoded(f, m.Payload)
		f.Add(uint8(m.Type), body)
		if len(body) > 0 {
			f.Add(uint8(m.Type), body[:len(body)-1])
		}
		f.Add(uint8(m.Type), append(bytes.Clone(body), 0xEE))
	}
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		m, err := decodePayload(MsgType(typ), body, nil)
		if err != nil || m == nil {
			return
		}
		prefix := []byte("frame-head")
		framed, err := m.appendTo(bytes.Clone(prefix))
		if err != nil {
			t.Fatalf("a decoded %T does not encode: %v", m, err)
		}
		wire := encoded(t, m)
		if !bytes.HasPrefix(framed, prefix) || !bytes.Equal(framed[len(prefix):], wire) {
			t.Fatalf("%T: appending to a frame gave %x, encoding alone %x", m, framed, wire)
		}
		back, err := decodePayload(MsgType(typ), wire, nil)
		if err != nil {
			t.Fatalf("%T: decode(encode(m)): %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("decode(encode(m)) != m\n  m    %+v\n  back %+v", m, back)
		}
	})
}
