// Package openflow implements a compact OpenFlow-inspired control
// channel between the controller/collector and switch agents: framed
// binary messages over any net.Conn, carrying feature discovery, rule
// installation (FlowMod) and the flow/port statistics requests that
// FOCES' statistics collector issues every detection period. The paper
// uses Floodlight's REST API for this glue; the protocol here plays
// that role with stdlib only.
package openflow

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

// Version is the protocol version byte.
const Version = 1

// MsgType enumerates control messages.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeFlowMod
	TypeFlowStatsRequest
	TypeFlowStatsReply
	TypePortStatsRequest
	TypePortStatsReply
	TypeError
	// TypePacketIn is sent by an agent to the controller when a packet
	// misses the flow table (reactive mode). The XID correlates the
	// controller's eventual TypePacketOut release.
	TypePacketIn
	// TypePacketOut releases a buffered packet-in after the controller
	// has installed rules; its XID echoes the packet-in's.
	TypePacketOut
)

// msgTypeNames is indexed by MsgType; String is on every error path's
// %v, so the table is built once.
var msgTypeNames = [...]string{
	TypeHello:            "hello",
	TypeEchoRequest:      "echo-request",
	TypeEchoReply:        "echo-reply",
	TypeFeaturesRequest:  "features-request",
	TypeFeaturesReply:    "features-reply",
	TypeFlowMod:          "flow-mod",
	TypeFlowStatsRequest: "flow-stats-request",
	TypeFlowStatsReply:   "flow-stats-reply",
	TypePortStatsRequest: "port-stats-request",
	TypePortStatsReply:   "port-stats-reply",
	TypeError:            "error",
	TypePacketIn:         "packet-in",
	TypePacketOut:        "packet-out",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// Message is one framed control message. Payload is one of the typed
// payload structs below (nil for bodyless messages).
type Message struct {
	Type    MsgType
	XID     uint32
	Payload Payload
}

// Payload is a typed message body. appendTo encodes it onto dst — in
// practice the connection's frame buffer, so no payload is built
// anywhere else first — and returns the extended slice.
type Payload interface {
	appendTo(dst []byte) ([]byte, error)
}

// FeaturesReply describes a switch.
type FeaturesReply struct {
	Switch   topo.SwitchID
	NumPorts uint32
	NumRules uint32
}

func (p *FeaturesReply) appendTo(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Switch))
	dst = binary.BigEndian.AppendUint32(dst, p.NumPorts)
	return binary.BigEndian.AppendUint32(dst, p.NumRules), nil
}

func decodeFeaturesReply(b []byte) (*FeaturesReply, error) {
	if len(b) != 12 {
		return nil, fmt.Errorf("openflow: features-reply body %d bytes, want 12", len(b))
	}
	return &FeaturesReply{
		Switch:   topo.SwitchID(int32(binary.BigEndian.Uint32(b))),
		NumPorts: binary.BigEndian.Uint32(b[4:]),
		NumRules: binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// FlowModCommand selects the FlowMod operation.
type FlowModCommand uint8

// FlowMod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowDelete
)

// FlowMod installs or removes a rule on the agent's switch.
type FlowMod struct {
	Command FlowModCommand
	Rule    flowtable.Rule
}

func (p *FlowMod) appendTo(dst []byte) ([]byte, error) {
	var match []byte
	if p.Command != FlowDelete {
		var err error
		match, err = p.Rule.Match.MarshalBinary()
		if err != nil && p.Command == FlowAdd {
			return nil, fmt.Errorf("openflow: flow-mod match: %w", err)
		}
	}
	dst = append(dst, byte(p.Command))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Rule.ID)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Rule.Priority)))
	dst = append(dst, byte(p.Rule.Action.Type))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Rule.Action.Port)))
	return append(dst, match...), nil
}

func decodeFlowMod(b []byte) (*FlowMod, error) {
	if len(b) < 14 {
		return nil, fmt.Errorf("openflow: flow-mod body %d bytes, want >= 14", len(b))
	}
	p := &FlowMod{Command: FlowModCommand(b[0])}
	if p.Command != FlowAdd && p.Command != FlowDelete {
		return nil, fmt.Errorf("openflow: bad flow-mod command %d", b[0])
	}
	p.Rule.ID = int(int32(binary.BigEndian.Uint32(b[1:])))
	p.Rule.Priority = int(int32(binary.BigEndian.Uint32(b[5:])))
	p.Rule.Action.Type = flowtable.ActionType(b[9])
	p.Rule.Action.Port = int(int32(binary.BigEndian.Uint32(b[10:])))
	if p.Command == FlowAdd {
		sp, n, err := header.UnmarshalSpace(b[14:])
		if err != nil {
			return nil, fmt.Errorf("openflow: flow-mod match: %w", err)
		}
		if 14+n != len(b) {
			return nil, fmt.Errorf("openflow: flow-mod trailing %d bytes", len(b)-14-n)
		}
		p.Rule.Match = sp
	}
	return p, nil
}

// FlowStat is one rule's counter.
type FlowStat struct {
	RuleID  int
	Packets uint64
}

// FlowStatsReply carries all rule counters of a switch.
//
// A reply a Client hands back is decoded into storage on loan from the
// client's connection. Release returns that storage for a later reply
// to reuse; a caller that never releases keeps the reply for good, and
// the connection allocates anew.
type FlowStatsReply struct {
	Switch topo.SwitchID
	Stats  []FlowStat

	// free is the list the storage was lent from; nil on a hand-built
	// reply. released is guarded by free.mu.
	free     *replyFree
	released bool
}

// Release hands a received reply's storage back to the connection that
// decoded it. After Release the reply and its Stats are dead: the next
// flow-stats reply on that connection may overwrite them. Releasing
// twice panics; a release after the storage has been lent out again
// cannot be told apart from the new holder's, so it is the caller's to
// avoid. On a hand-built reply Release is a no-op, so generic consumer
// code can release unconditionally.
func (p *FlowStatsReply) Release() {
	f := p.free
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.released {
		panic("openflow: FlowStatsReply released twice")
	}
	p.released = true
	if len(f.replies) < maxFreeReplies {
		f.replies = append(f.replies, p)
	}
}

// maxFreeReplies caps a connection's list of released replies. The
// collector polls each switch once per round and releases the reply
// before the next, so one is in use at a time; the rest of the room
// absorbs concurrent requests. Replies released beyond it fall through
// to the garbage collector.
const maxFreeReplies = 4

// replyFree is a connection's list of released flow-stats replies.
// Unlike a sync.Pool it is not emptied by garbage collection, so a
// steady poll loop decodes every reply into the same storage however
// often the collector runs.
type replyFree struct {
	mu      sync.Mutex
	replies []*FlowStatsReply
}

// get pops a released reply, or builds one lent from f. A nil f lends
// nothing: the reply is the caller's for good.
func (f *replyFree) get() *FlowStatsReply {
	if f == nil {
		return new(FlowStatsReply)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := len(f.replies)
	if k == 0 {
		return &FlowStatsReply{free: f}
	}
	p := f.replies[k-1]
	f.replies[k-1] = nil
	f.replies = f.replies[:k-1]
	p.released = false
	return p
}

func (p *FlowStatsReply) appendTo(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Switch)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Stats)))
	for _, s := range p.Stats {
		dst = appendFlowStat(dst, s.RuleID, s.Packets)
	}
	return dst, nil
}

func appendFlowStat(dst []byte, ruleID int, packets uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(ruleID)))
	return binary.BigEndian.AppendUint64(dst, packets)
}

// appendTableFlowStats encodes the FlowStatsReply body an agent sends:
// the same bytes as a FlowStatsReply holding tbl.Counters() (up to
// entry order), but written by walking the table under its read lock
// straight into dst, with no map or []FlowStat in between.
func appendTableFlowStats(dst []byte, sw topo.SwitchID, tbl *flowtable.Table) []byte {
	dst = slices.Grow(dst, 8+12*tbl.Len()) // a capacity hint only
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(sw)))
	countAt := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	n := uint32(0)
	tbl.EachCounter(func(id int, packets uint64) {
		dst = appendFlowStat(dst, id, packets)
		n++
	})
	// The count written is the walk's own: Len() is a separate lock
	// acquisition, and an Install could slip in between.
	binary.BigEndian.PutUint32(dst[countAt:], n)
	return dst
}

// decodeFlowStatsReply decodes a flow-stats-reply body into storage
// taken from free, or into fresh storage when free is nil. A recycled
// reply's Stats are resliced to exactly the body's count, so nothing of
// a longer predecessor shows.
func decodeFlowStatsReply(b []byte, free *replyFree) (*FlowStatsReply, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("openflow: flow-stats-reply body %d bytes", len(b))
	}
	n := int(binary.BigEndian.Uint32(b[4:]))
	if len(b) != 8+12*n {
		return nil, fmt.Errorf("openflow: flow-stats-reply body %d bytes for %d stats", len(b), n)
	}
	p := free.get()
	p.Switch = topo.SwitchID(int32(binary.BigEndian.Uint32(b)))
	if cap(p.Stats) < n {
		p.Stats = make([]FlowStat, n)
	}
	p.Stats = p.Stats[:n]
	for i := 0; i < n; i++ {
		off := 8 + 12*i
		p.Stats[i].RuleID = int(int32(binary.BigEndian.Uint32(b[off:])))
		p.Stats[i].Packets = binary.BigEndian.Uint64(b[off+4:])
	}
	return p, nil
}

// PortStat is one port's counters.
type PortStat struct {
	Port   int
	Rx, Tx uint64
}

// PortStatsReply carries all port counters of a switch.
type PortStatsReply struct {
	Switch topo.SwitchID
	Stats  []PortStat
}

func (p *PortStatsReply) appendTo(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Switch)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Stats)))
	for _, s := range p.Stats {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(s.Port)))
		dst = binary.BigEndian.AppendUint64(dst, s.Rx)
		dst = binary.BigEndian.AppendUint64(dst, s.Tx)
	}
	return dst, nil
}

func decodePortStatsReply(b []byte) (*PortStatsReply, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("openflow: port-stats-reply body %d bytes", len(b))
	}
	p := &PortStatsReply{Switch: topo.SwitchID(int32(binary.BigEndian.Uint32(b)))}
	n := int(binary.BigEndian.Uint32(b[4:]))
	if len(b) != 8+20*n {
		return nil, fmt.Errorf("openflow: port-stats-reply body %d bytes for %d stats", len(b), n)
	}
	p.Stats = make([]PortStat, n)
	for i := 0; i < n; i++ {
		off := 8 + 20*i
		p.Stats[i].Port = int(int32(binary.BigEndian.Uint32(b[off:])))
		p.Stats[i].Rx = binary.BigEndian.Uint64(b[off+4:])
		p.Stats[i].Tx = binary.BigEndian.Uint64(b[off+12:])
	}
	return p, nil
}

// PacketIn notifies the controller of a table miss at a switch.
type PacketIn struct {
	Switch topo.SwitchID
	InPort int // -1 when the ingress port is unknown
	Packet header.Packet
}

func (p *PacketIn) appendTo(dst []byte) ([]byte, error) {
	pkt, err := p.Packet.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("openflow: packet-in: %w", err)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Switch)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.InPort)))
	return append(dst, pkt...), nil
}

func decodePacketIn(b []byte) (*PacketIn, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("openflow: packet-in body %d bytes", len(b))
	}
	p := &PacketIn{
		Switch: topo.SwitchID(int32(binary.BigEndian.Uint32(b))),
		InPort: int(int32(binary.BigEndian.Uint32(b[4:]))),
	}
	pkt, n, err := header.UnmarshalPacket(b[8:])
	if err != nil {
		return nil, fmt.Errorf("openflow: packet-in: %w", err)
	}
	if 8+n != len(b) {
		return nil, fmt.Errorf("openflow: packet-in trailing %d bytes", len(b)-8-n)
	}
	p.Packet = pkt
	return p, nil
}

// ErrorMsg reports a failure to the peer.
type ErrorMsg struct {
	Code uint16
	Text string
}

// Error codes.
const (
	ErrCodeBadRequest uint16 = iota + 1
	ErrCodeFlowModFailed
)

func (p *ErrorMsg) appendTo(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, p.Code)
	return append(dst, p.Text...), nil
}

func decodeErrorMsg(b []byte) (*ErrorMsg, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("openflow: error body %d bytes", len(b))
	}
	return &ErrorMsg{Code: binary.BigEndian.Uint16(b), Text: string(b[2:])}, nil
}

// Error makes ErrorMsg usable as a Go error when surfaced by clients.
func (p *ErrorMsg) Error() string {
	return fmt.Sprintf("openflow: peer error %d: %s", p.Code, p.Text)
}

// decodePayload decodes a message body by type. Bodyless types return
// nil. b is the connection's reused read buffer: every decoder copies
// what it keeps (integers by value, ErrorMsg.Text through string(),
// matches and packets through header.Unmarshal*), so no payload may
// alias b past this call. A flow-stats reply is decoded into storage
// from replies (nil: fresh storage).
func decodePayload(t MsgType, b []byte, replies *replyFree) (Payload, error) {
	switch t {
	case TypeHello, TypeEchoRequest, TypeEchoReply, TypeFeaturesRequest,
		TypeFlowStatsRequest, TypePortStatsRequest, TypePacketOut:
		if len(b) != 0 {
			return nil, fmt.Errorf("openflow: %v must have empty body, got %d bytes", t, len(b))
		}
		return nil, nil
	case TypeFeaturesReply:
		return decodeFeaturesReply(b)
	case TypeFlowMod:
		return decodeFlowMod(b)
	case TypeFlowStatsReply:
		return decodeFlowStatsReply(b, replies)
	case TypePortStatsReply:
		return decodePortStatsReply(b)
	case TypeError:
		return decodeErrorMsg(b)
	case TypePacketIn:
		return decodePacketIn(b)
	default:
		return nil, fmt.Errorf("openflow: unknown message type %d", t)
	}
}
