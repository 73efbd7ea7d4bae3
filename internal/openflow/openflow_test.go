package openflow

import (
	"errors"
	"net"
	"testing"
	"time"

	"foces/internal/dataplane"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

var layout = header.FiveTuple()

func newNet(t *testing.T) *dataplane.Network {
	t.Helper()
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return dataplane.NewNetwork(top, layout)
}

func startPair(t *testing.T, network *dataplane.Network, sw topo.SwitchID) (*Agent, *Client) {
	t.Helper()
	agent, err := NewAgent(network, sw)
	if err != nil {
		t.Fatal(err)
	}
	a, c := net.Pipe()
	agent.Go(a)
	client := NewClient(c, time.Second)
	t.Cleanup(func() {
		client.Close()
		agent.Close()
	})
	return agent, client
}

func TestHandshakeAndEcho(t *testing.T) {
	network := newNet(t)
	_, client := startPair(t, network, 0)
	if err := client.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := client.Echo(); err != nil {
		t.Fatal(err)
	}
}

func TestFeatures(t *testing.T) {
	network := newNet(t)
	_, client := startPair(t, network, 0)
	fr, err := client.Features()
	if err != nil {
		t.Fatal(err)
	}
	// Switch 0 in Linear(2,1): one link port + one host port.
	if fr.Switch != 0 || fr.NumPorts != 2 || fr.NumRules != 0 {
		t.Fatalf("features = %+v", fr)
	}
}

func TestFlowModInstallStatsDelete(t *testing.T) {
	network := newNet(t)
	_, client := startPair(t, network, 0)
	m, err := layout.MatchExact(layout.Wildcard(), header.FieldDstIP, header.IPv4(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	rule := flowtable.Rule{ID: 7, Priority: 10, Match: m, Action: flowtable.Action{Type: flowtable.ActionOutput, Port: 0}}
	if err := client.InstallRule(rule); err != nil {
		t.Fatal(err)
	}
	// The rule landed in the data plane's table.
	tbl, err := network.Table(0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Rule(7)
	if !ok || got.Priority != 10 || !got.Match.Equal(m) {
		t.Fatalf("installed rule = %+v ok=%v", got, ok)
	}
	tbl.Count(7, 99)
	stats, err := client.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Stats) != 1 || stats.Stats[0].RuleID != 7 || stats.Stats[0].Packets != 99 {
		t.Fatalf("stats = %+v", stats)
	}
	// Duplicate install errors via the channel.
	if err := client.InstallRule(rule); err == nil {
		t.Fatal("duplicate install must surface peer error")
	} else {
		var em *ErrorMsg
		if !errors.As(err, &em) || em.Code != ErrCodeFlowModFailed {
			t.Fatalf("want flow-mod-failed, got %v", err)
		}
	}
	if err := client.DeleteRule(7); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Fatal("delete did not reach the table")
	}
	if err := client.DeleteRule(7); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestPortStats(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	network := dataplane.NewNetwork(top, layout)
	_, client := startPair(t, network, 1)
	ps, err := client.PortStats()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Switch != 1 || len(ps.Stats) != 2 {
		t.Fatalf("port stats = %+v", ps)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	m, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, header.IPv4(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Type: TypeHello, XID: 1},
		{Type: TypeEchoRequest, XID: 2},
		{Type: TypeFeaturesReply, XID: 3, Payload: &FeaturesReply{Switch: 9, NumPorts: 4, NumRules: 17}},
		{Type: TypeFlowMod, XID: 4, Payload: &FlowMod{Command: FlowAdd, Rule: flowtable.Rule{
			ID: 5, Priority: 100, Match: m, Action: flowtable.Action{Type: flowtable.ActionOutput, Port: 3},
		}}},
		{Type: TypeFlowMod, XID: 5, Payload: &FlowMod{Command: FlowDelete, Rule: flowtable.Rule{ID: 5}}},
		{Type: TypeFlowStatsReply, XID: 6, Payload: &FlowStatsReply{Switch: 2, Stats: []FlowStat{{RuleID: 1, Packets: 1 << 40}}}},
		{Type: TypePortStatsReply, XID: 7, Payload: &PortStatsReply{Switch: 2, Stats: []PortStat{{Port: 0, Rx: 10, Tx: 20}}}},
		{Type: TypeError, XID: 8, Payload: &ErrorMsg{Code: ErrCodeBadRequest, Text: "nope"}},
	}
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	for _, want := range msgs {
		want := want
		go func() {
			if err := ca.Write(want); err != nil {
				t.Error(err)
			}
		}()
		got, err := cb.Read()
		if err != nil {
			t.Fatalf("%v: %v", want.Type, err)
		}
		if got.Type != want.Type || got.XID != want.XID {
			t.Fatalf("header mismatch: %+v vs %+v", got, want)
		}
		switch wp := want.Payload.(type) {
		case *FlowMod:
			gp, ok := got.Payload.(*FlowMod)
			if !ok || gp.Command != wp.Command || gp.Rule.ID != wp.Rule.ID ||
				gp.Rule.Priority != wp.Rule.Priority || gp.Rule.Action != wp.Rule.Action {
				t.Fatalf("flow-mod mismatch: %+v vs %+v", got.Payload, wp)
			}
			if wp.Command == FlowAdd && !gp.Rule.Match.Equal(wp.Rule.Match) {
				t.Fatal("match space did not round-trip")
			}
		case *FlowStatsReply:
			gp := got.Payload.(*FlowStatsReply)
			if gp.Switch != wp.Switch || len(gp.Stats) != len(wp.Stats) || gp.Stats[0] != wp.Stats[0] {
				t.Fatalf("flow-stats mismatch: %+v", gp)
			}
		case *PortStatsReply:
			gp := got.Payload.(*PortStatsReply)
			if gp.Switch != wp.Switch || gp.Stats[0] != wp.Stats[0] {
				t.Fatalf("port-stats mismatch: %+v", gp)
			}
		case *FeaturesReply:
			gp := got.Payload.(*FeaturesReply)
			if *gp != *wp {
				t.Fatalf("features mismatch: %+v", gp)
			}
		case *ErrorMsg:
			gp := got.Payload.(*ErrorMsg)
			if *gp != *wp {
				t.Fatalf("error mismatch: %+v", gp)
			}
		}
	}
}

func TestClientTimeout(t *testing.T) {
	// A peer that never answers must trigger the request timeout.
	a, b := net.Pipe()
	defer a.Close()
	client := NewClient(b, 50*time.Millisecond)
	defer client.Close()
	go func() {
		// Drain the request so the write does not block, then stay mute.
		buf := make([]byte, 64)
		_, _ = a.Read(buf)
	}()
	if err := client.Echo(); err == nil {
		t.Fatal("mute peer must time out")
	}
}

func TestClientClosedConnection(t *testing.T) {
	network := newNet(t)
	agent, err := NewAgent(network, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	agent.Go(a)
	client := NewClient(b, time.Second)
	if err := client.Hello(); err != nil {
		t.Fatal(err)
	}
	agent.Close()
	if err := client.Echo(); err == nil {
		t.Fatal("request after agent close must fail")
	}
	client.Close()
	if err := client.Echo(); err == nil {
		t.Fatal("request on closed client must fail")
	}
}

func TestAgentOverTCP(t *testing.T) {
	network := newNet(t)
	agent, err := NewAgent(network, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		agent.Go(conn)
		close(accepted)
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(raw, time.Second)
	defer client.Close()
	<-accepted
	if err := client.Hello(); err != nil {
		t.Fatal(err)
	}
	fr, err := client.Features()
	if err != nil || fr.Switch != 0 {
		t.Fatalf("features over tcp: %+v err=%v", fr, err)
	}
	agent.Close()
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodePayload(TypeFeaturesReply, []byte{1, 2}, nil); err == nil {
		t.Fatal("short features must error")
	}
	if _, err := decodePayload(TypeHello, []byte{1}, nil); err == nil {
		t.Fatal("hello with body must error")
	}
	if _, err := decodePayload(MsgType(200), nil, nil); err == nil {
		t.Fatal("unknown type must error")
	}
	if _, err := decodePayload(TypeFlowMod, []byte{9, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0}, nil); err == nil {
		t.Fatal("bad flow-mod command must error")
	}
	if _, err := decodePayload(TypeFlowStatsReply, []byte{0, 0, 0, 1, 0, 0, 0, 9}, nil); err == nil {
		t.Fatal("inconsistent stats count must error")
	}
}

func TestNewAgentUnknownSwitch(t *testing.T) {
	network := newNet(t)
	if _, err := NewAgent(network, topo.SwitchID(99)); err == nil {
		t.Fatal("unknown switch must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeHello.String() != "hello" || MsgType(99).String() != "type-99" {
		t.Fatal("MsgType strings wrong")
	}
}
