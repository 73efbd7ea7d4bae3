// Control-channel allocation budget. Excluded under the race detector,
// whose instrumentation inflates MemStats allocation counts.

//go:build !race

package openflow

import (
	"context"
	"testing"
)

// TestFlowStatsRoundTripAllocs pins what one flow-stats round trip
// costs client and agent together over a loopback TCP connection (as
// the benchmark dials one; net.Pipe allocates inside SetDeadline) when
// the caller releases the reply: nothing. The released reply's storage
// is the next reply's, and there is no goroutine, channel or closure
// per request, no frame body on the read side, and on the agent no
// counter map, []FlowStat or encode buffer.
func TestFlowStatsRoundTripAllocs(t *testing.T) {
	const rules = 56
	network := newNet(t)
	installRules(t, network, 0, rules)
	_, client := startTCPPair(t, network, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.Done() // a context makes its Done channel once; not the round trip's cost
	roundTrip := func() {
		reply, err := client.FlowStatsContext(ctx)
		if err != nil || len(reply.Stats) != rules {
			t.Fatalf("flow stats: %v, err %v", reply, err)
		}
		reply.Release()
	}
	roundTrip() // grow the frame buffers, warm the reply and slot free lists
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 0 {
		t.Errorf("released flow-stats round trip allocated %.1f times; want 0", allocs)
	}
}
