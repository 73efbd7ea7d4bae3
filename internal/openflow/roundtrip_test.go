package openflow

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"foces/internal/dataplane"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
	"foces/internal/wire"
)

// installRules gives switch sw n rules (IDs 0..n-1) with distinct
// counters.
func installRules(t *testing.T, network *dataplane.Network, sw topo.SwitchID, n int) *flowtable.Table {
	t.Helper()
	tbl, err := network.Table(sw)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		m, err := layout.MatchExact(layout.Wildcard(), header.FieldDstIP, header.IPv4(10, 0, byte(id>>8), byte(id)))
		if err != nil {
			t.Fatal(err)
		}
		rule := flowtable.Rule{ID: id, Priority: 10, Match: m, Action: flowtable.Action{Type: flowtable.ActionOutput, Port: 0}}
		if err := tbl.Install(rule); err != nil {
			t.Fatal(err)
		}
		tbl.Count(id, uint64(1000+id))
	}
	return tbl
}

// startTCPPair is startPair over a loopback TCP connection, the
// transport the benchmark's control channels use.
func startTCPPair(t *testing.T, network *dataplane.Network, sw topo.SwitchID) (*Agent, *Client) {
	t.Helper()
	agent, err := NewAgent(network, sw)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		conn.Close()
		t.Fatal("accept failed")
	}
	agent.Go(server)
	client := NewClient(conn, time.Second)
	t.Cleanup(func() {
		client.Close()
		agent.Close()
	})
	if err := client.Hello(); err != nil {
		t.Fatal(err)
	}
	return agent, client
}

// sortedStatsBody decodes a flow-stats-reply body and re-encodes it with
// its entries sorted by rule, so bodies can be compared up to order.
func sortedStatsBody(t *testing.T, body []byte) []byte {
	t.Helper()
	reply, err := decodeFlowStatsReply(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(reply.Stats, func(a, b FlowStat) int { return a.RuleID - b.RuleID })
	out, err := reply.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAgentFlowStatsFrameMatchesCounters: the frame the agent builds by
// walking the table is, up to entry order, the encoding of a
// FlowStatsReply holding Counters() — spoofed values included, real
// ones hidden, exactly as the map reports them.
func TestAgentFlowStatsFrameMatchesCounters(t *testing.T) {
	network := newNet(t)
	tbl := installRules(t, network, 0, 9)
	if err := tbl.SpoofCounter(4, 7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SpoofCounter(8, 1<<40); err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(network, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	agentEnd, peer := net.Pipe()
	agent.Go(agentEnd)
	defer peer.Close()

	raw := wire.NewConn(peer, "openflow", Version, maxMessageSize)
	if err := raw.WriteFrame(byte(TypeFlowStatsRequest), 77, nil); err != nil {
		t.Fatal(err)
	}
	typ, xid, body, err := raw.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if MsgType(typ) != TypeFlowStatsReply || xid != 77 {
		t.Fatalf("answered with %v xid %d", MsgType(typ), xid)
	}

	counters := tbl.Counters()
	if counters[4] != 7 || counters[8] != 1<<40 {
		t.Fatalf("Counters() does not report the spoofed values: %v", counters)
	}
	want := &FlowStatsReply{Switch: 0}
	for id, v := range counters {
		want.Stats = append(want.Stats, FlowStat{RuleID: id, Packets: v})
	}
	wantBody, err := want.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedStatsBody(t, body), sortedStatsBody(t, wantBody); !bytes.Equal(got, want) {
		t.Fatalf("agent frame body\n  %x\nencode(Counters())\n  %x", got, want)
	}
	if len(body) != len(wantBody) {
		t.Fatalf("agent frame body is %d bytes, encode(Counters()) %d", len(body), len(wantBody))
	}
}

// TestClientTimedOutWriteLeavesWholeFrames pins the write-timeout rule
// the Client documents: a request whose caller gave up while its frame
// was being written is still written whole, so the connection stays in
// frame and the next request works.
func TestClientTimedOutWriteLeavesWholeFrames(t *testing.T) {
	serverEnd, clientEnd := net.Pipe()
	defer serverEnd.Close()
	c := NewClient(clientEnd, time.Minute)
	defer c.Close()

	// The peer takes three bytes of the first frame, then stalls past
	// the caller's deadline: net.Pipe is unbuffered, so the writer is
	// stuck mid-frame when the caller gives up.
	var head [wire.HeaderSize]byte
	stalled := make(chan struct{})
	go func() {
		_, _ = io.ReadFull(serverEnd, head[:3])
		close(stalled)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.FlowStatsContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled request: err = %v, want deadline exceeded", err)
	}
	<-stalled

	// A second request queues behind the stuck frame. The peer now
	// resumes: the rest of the first frame must arrive intact, followed
	// by a well-formed second one, which it answers.
	type outcome struct {
		reply *FlowStatsReply
		err   error
	}
	second := make(chan outcome, 1)
	go func() {
		reply, err := c.FlowStats()
		second <- outcome{reply, err}
	}()
	if _, err := io.ReadFull(serverEnd, head[3:]); err != nil {
		t.Fatal(err)
	}
	if head[0] != Version || MsgType(head[1]) != TypeFlowStatsRequest ||
		binary.BigEndian.Uint32(head[2:]) != wire.HeaderSize {
		t.Fatalf("abandoned request's frame arrived mangled: %x", head)
	}
	staleXID := binary.BigEndian.Uint32(head[6:])
	conn := NewConn(serverEnd)
	msg, err := conn.Read()
	if err != nil {
		t.Fatalf("connection out of frame after a timed-out write: %v", err)
	}
	if msg.Type != TypeFlowStatsRequest || msg.XID == staleXID {
		t.Fatalf("second request = %+v (stale xid %d)", msg, staleXID)
	}
	if err := conn.Write(Message{Type: TypeFlowStatsReply, XID: msg.XID,
		Payload: &FlowStatsReply{Switch: 1, Stats: []FlowStat{{RuleID: 7, Packets: 42}}}}); err != nil {
		t.Fatal(err)
	}
	got := <-second
	if got.err != nil || len(got.reply.Stats) != 1 || got.reply.Stats[0].Packets != 42 {
		t.Fatalf("request after a timed-out write: %+v, err %v", got.reply, got.err)
	}
}

// TestClientReusedSlotsNeverDeliverStaleReplies interleaves requests
// that are given up with requests that succeed, on several goroutines.
// Reply slots are reused throughout; every request that succeeds must
// get the reply made for it, never an abandoned request's late one
// through a recycled slot. Each request carries a number of its caller's
// choosing (a flow-mod's rule ID) which the peer copies into the reply.
// For two requests in three the peer sends that reply and cancels the
// caller's context at the same instant, so replies keep arriving just as
// their requests are abandoned — the moment the reader may already hold
// the abandoned request's slot.
func TestClientReusedSlotsNeverDeliverStaleReplies(t *testing.T) {
	serverEnd, clientEnd := net.Pipe()
	c := NewClient(clientEnd, time.Minute)
	defer c.Close()

	conn := NewConn(serverEnd)
	var (
		cancels sync.Map // request number -> its context.CancelFunc
		racing  sync.WaitGroup
	)
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for {
			msg, err := conn.Read()
			if err != nil {
				return
			}
			n := msg.Payload.(*FlowMod).Rule.ID
			reply := Message{Type: TypeFeaturesReply, XID: msg.XID, Payload: &FeaturesReply{NumRules: uint32(n)}}
			cancel, _ := cancels.Load(n)
			if n%3 == 0 {
				_ = conn.Write(reply)
				continue
			}
			racing.Add(2)
			go func() {
				defer racing.Done()
				cancel.(context.CancelFunc)()
			}()
			go func() {
				defer racing.Done()
				_ = conn.Write(reply)
			}()
		}
	}()
	request := func(n int) (answered bool) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cancels.Store(n, cancel)
		reply, err := c.roundTripCtx(ctx, TypeFlowMod, &FlowMod{Command: FlowDelete, Rule: flowtable.Rule{ID: n}})
		if errors.Is(err, context.Canceled) {
			return false
		}
		if err != nil {
			t.Errorf("request %d: %v", n, err)
			return false
		}
		if fr, ok := reply.Payload.(*FeaturesReply); !ok || int(fr.NumRules) != n {
			t.Errorf("request %d was handed another request's reply: %+v", n, reply.Payload)
		}
		return true
	}

	const workers, perWorker = 4, 300
	var (
		wg                  sync.WaitGroup
		mu                  sync.Mutex
		answered, abandoned int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ok := request(w*perWorker + i)
				mu.Lock()
				if ok {
					answered++
				} else {
					abandoned++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	racing.Wait() // every abandoned request's reply has now been read

	if answered < workers*perWorker/3 || abandoned == 0 {
		t.Fatalf("stress did not interleave: %d answered, %d abandoned", answered, abandoned)
	}
	// The client is as good as new: nothing is left pending, and the
	// free list holds reused slots — at most one per concurrent caller.
	if !request(3 * workers * perWorker) {
		t.Fatal("request on a quiet channel was not answered")
	}
	c.mu.Lock()
	pending, free := len(c.pending), len(c.free)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d XIDs still pending after every request returned", pending)
	}
	if free == 0 || free > workers {
		t.Fatalf("free list holds %d slots; want 1..%d", free, workers)
	}
	c.Close()
	<-serverDone
}
