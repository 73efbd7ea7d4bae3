package openflow

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// statsReply is a flow-stats reply of n entries whose counters start at
// base, so a receiver can check it holds exactly what was sent.
func statsReply(base uint64, n int) *FlowStatsReply {
	p := &FlowStatsReply{Switch: 3, Stats: make([]FlowStat, n)}
	for i := range p.Stats {
		p.Stats[i] = FlowStat{RuleID: i, Packets: base + uint64(i)}
	}
	return p
}

// readReply reads the next message through conn, a flow-stats reply.
func readReply(t *testing.T, conn *Conn) *FlowStatsReply {
	t.Helper()
	msg, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	return msg.Payload.(*FlowStatsReply)
}

// TestFlowStatsReplyReleaseContract: Release is a no-op on a hand-built
// reply, however often it is called; a received reply goes back once,
// its storage carries the next reply, and a second release panics.
func TestFlowStatsReplyReleaseContract(t *testing.T) {
	literal := statsReply(7, 2)
	literal.Release()
	literal.Release()
	if len(literal.Stats) != 2 || literal.Stats[1].Packets != 8 {
		t.Fatalf("releasing a hand-built reply changed it: %+v", literal)
	}

	var frames []byte
	for _, n := range []int{5, 2} {
		frames = append(frames, frameOf(t, Message{Type: TypeFlowStatsReply, XID: uint32(n), Payload: statsReply(100*uint64(n), n)})...)
	}
	conn := NewConn(streamConn{bytes.NewReader(frames)})
	first := readReply(t, conn)
	first.Release()
	second := readReply(t, conn)
	if second != first {
		t.Errorf("the released reply's storage was not reused")
	}
	if want := statsReply(200, 2); !slices.Equal(second.Stats, want.Stats) {
		t.Errorf("reply recycled from a longer one: %v, want %v", second.Stats, want.Stats)
	}
	second.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	second.Release()
}

// TestHeldReplyNeverChanges: a caller keeps one reply unreleased while
// the same client serves a late reply to an abandoned request and then
// many concurrent round trips whose replies are released and recycled.
// The held reply never changes, and every recycled reply holds exactly
// what its peer sent. Run under -race, the held reply is read
// concurrently with the decoding of the others.
func TestHeldReplyNeverChanges(t *testing.T) {
	serverEnd, clientEnd := net.Pipe()
	c := NewClient(clientEnd, time.Minute)
	defer c.Close()
	defer serverEnd.Close()

	// The peer answers request k with k+1 entries from 1000·k, largest
	// first so recycled storage always has a longer predecessor to leak,
	// except that it holds back its answer to request 1 until late is
	// closed.
	late := make(chan struct{})
	peer := NewConn(serverEnd)
	go func() {
		for k := 0; ; k++ {
			msg, err := peer.Read()
			if err != nil {
				return
			}
			reply := Message{Type: TypeFlowStatsReply, XID: msg.XID, Payload: statsReply(1000*uint64(k), 1+(40-k%40))}
			if k == 1 {
				go func() {
					<-late
					_ = peer.Write(reply)
				}()
				continue
			}
			if peer.Write(reply) != nil {
				return
			}
		}
	}()
	check := func(r *FlowStatsReply) error {
		if len(r.Stats) == 0 {
			return errors.New("empty reply")
		}
		k := r.Stats[0].Packets / 1000
		if want := statsReply(1000*k, 1+(40-int(k)%40)); !slices.Equal(r.Stats, want.Stats) {
			return errors.New("reply differs from what the peer sent")
		}
		return nil
	}

	held, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(held.Stats)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = c.FlowStatsContext(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned request: err = %v, want deadline exceeded", err)
	}
	close(late) // the reader now gets a reply nobody waits for

	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		for {
			if !slices.Equal(held.Stats, want) {
				watched <- errors.New("the held reply changed")
				return
			}
			select {
			case <-stop:
				watched <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				r, err := c.FlowStats()
				if err == nil {
					err = check(r)
				}
				if err != nil {
					t.Error(err)
					return
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-watched; err != nil {
		t.Error(err)
	}
	if !slices.Equal(held.Stats, want) {
		t.Errorf("held reply changed: %v, want %v", held.Stats, want)
	}
}
