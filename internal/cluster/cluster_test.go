package cluster

import (
	"testing"
	"time"

	"foces/internal/churn"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

var layout = header.FiveTuple()

// harness is one in-process cluster test fixture: a seeded controller
// and churn manager (the coordinator side's baseline) plus helpers to
// drive churn and traffic.
type harness struct {
	t     *testing.T
	topol *topo.Topology
	ctrl  *controller.Controller
	mgr   *churn.Manager
	batch []controller.RuleChange
}

func newHarness(t *testing.T, swn, hostsPer int) *harness {
	t.Helper()
	topol, err := topo.Linear(swn, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(topol, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	mgr, err := churn.NewManager(topol, layout, ctrl.Rules(), ctrl.RuleSpace(), core.Options{}, churn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, topol: topol, ctrl: ctrl, mgr: mgr}
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { h.batch = append(h.batch, ch...) })
	return h
}

// phantomIP returns an exact-match source IP no host owns: rules
// matching it capture no traffic, so adding one changes a slice's row
// set but no flow class — the rank-one (delta) churn disposition.
func (h *harness) phantomIP() uint64 {
	ip := uint64(0)
	for _, host := range h.topol.Hosts() {
		if host.IP >= ip {
			ip = host.IP + 1
		}
	}
	return ip
}

// addPhantomRule drives one rank-one churn epoch through the manager.
func (h *harness) addPhantomRule(sw topo.SwitchID, prio int) churn.Update {
	h.t.Helper()
	h.batch = h.batch[:0]
	match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, h.phantomIP())
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.ctrl.AddRule(sw, prio, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
		h.t.Fatal(err)
	}
	u, err := h.mgr.Apply(append([]controller.RuleChange(nil), h.batch...))
	if err != nil {
		h.t.Fatal(err)
	}
	return u
}

// addReroutingRule drives a refactoring churn epoch: a source-pinned
// drop reroutes a host's traffic, so affected slices rebuild from a
// fresh base (the full-snapshot fallback on the wire).
func (h *harness) addReroutingRule(sw topo.SwitchID, prio int) churn.Update {
	h.t.Helper()
	h.batch = h.batch[:0]
	host := h.topol.Hosts()[0]
	match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, host.IP)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.ctrl.AddRule(sw, prio, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
		h.t.Fatal(err)
	}
	u, err := h.mgr.Apply(append([]controller.RuleChange(nil), h.batch...))
	if err != nil {
		h.t.Fatal(err)
	}
	return u
}

// cleanVector is the expected counter vector under distinct per-pair
// volumes — a clean window.
func (h *harness) cleanVector() []float64 {
	h.t.Helper()
	vol := make(map[fcm.Pair]uint64)
	for _, a := range h.topol.Hosts() {
		for _, b := range h.topol.Hosts() {
			if a.ID != b.ID {
				vol[fcm.Pair{Src: a.ID, Dst: b.ID}] = 100 + 13*uint64(a.ID) + 7*uint64(b.ID)
			}
		}
	}
	y, err := h.mgr.FCM().ExpectedCounters(vol)
	if err != nil {
		h.t.Fatal(err)
	}
	return y
}

// anomalousVector perturbs the first real counter — a forwarding
// anomaly every slice-level detector must flag identically.
func (h *harness) anomalousVector() []float64 {
	h.t.Helper()
	y := h.cleanVector()
	for i := range y {
		if y[i] > 0 && !h.mgr.FCM().IsPlaceholder(i) {
			y[i] *= 3
			break
		}
	}
	return y
}

// startNodes brings up n detector nodes on loopback.
func startNodes(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := NewNode("127.0.0.1:0", NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}
	return nodes
}

func startCoordinator(t *testing.T, h *harness, nodes []*Node) *Coordinator {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
	}
	c, err := New(h.mgr, core.Options{}, Config{Peers: addrs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// assertOutcomeIdentical requires bit-level equality — every scalar
// and every float of every per-switch vector — between a distributed
// outcome and the local SlicedDetector's.
func assertOutcomeIdentical(t *testing.T, label string, got, want core.SlicedOutcome) {
	t.Helper()
	if got.Anomalous != want.Anomalous {
		t.Fatalf("%s: verdict %v, local run says %v", label, got.Anomalous, want.Anomalous)
	}
	if len(got.Suspects) != len(want.Suspects) {
		t.Fatalf("%s: %d suspects vs %d", label, len(got.Suspects), len(want.Suspects))
	}
	for i := range got.Suspects {
		if got.Suspects[i] != want.Suspects[i] {
			t.Fatalf("%s: suspect %d is switch %d, local run ranked %d", label, i, got.Suspects[i], want.Suspects[i])
		}
	}
	if len(got.PerSwitch) != len(want.PerSwitch) {
		t.Fatalf("%s: %d per-switch results vs %d", label, len(got.PerSwitch), len(want.PerSwitch))
	}
	for i := range got.PerSwitch {
		g, w := got.PerSwitch[i], want.PerSwitch[i]
		if g.Switch != w.Switch {
			t.Fatalf("%s: slice %d is switch %d, local run has %d", label, i, g.Switch, w.Switch)
		}
		if g.Result.Anomalous != w.Result.Anomalous || g.Result.Index != w.Result.Index ||
			g.Result.ErrMax != w.Result.ErrMax || g.Result.ErrMed != w.Result.ErrMed {
			t.Fatalf("%s: switch %d scalar drift: got {anom=%v idx=%v max=%v med=%v} want {anom=%v idx=%v max=%v med=%v}",
				label, g.Switch, g.Result.Anomalous, g.Result.Index, g.Result.ErrMax, g.Result.ErrMed,
				w.Result.Anomalous, w.Result.Index, w.Result.ErrMax, w.Result.ErrMed)
		}
		vecs := [][2][]float64{
			{g.Result.Delta, w.Result.Delta},
			{g.Result.XHat, w.Result.XHat},
			{g.Result.YHat, w.Result.YHat},
		}
		for vi, pair := range vecs {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: switch %d vector %d length %d vs %d", label, g.Switch, vi, len(pair[0]), len(pair[1]))
			}
			for k := range pair[0] {
				if pair[0][k] != pair[1][k] {
					t.Fatalf("%s: switch %d vector %d entry %d: %v != %v (not bitwise identical)",
						label, g.Switch, vi, k, pair[0][k], pair[1][k])
				}
			}
		}
	}
}

// checkWindow runs one clean/anomalous/masked window triple through
// the cluster and requires bitwise identity with the local engines.
func checkWindow(t *testing.T, label string, h *harness, c *Coordinator) {
	t.Helper()
	local := h.mgr.Sliced()
	for _, w := range []struct {
		name string
		y    []float64
	}{
		{"clean", h.cleanVector()},
		{"anomalous", h.anomalousVector()},
	} {
		got, err := c.DetectMasked(w.y, nil, core.Options{})
		if err != nil {
			t.Fatalf("%s/%s: cluster detect: %v", label, w.name, err)
		}
		want, err := local.DetectWithOptions(w.y, core.Options{})
		if err != nil {
			t.Fatalf("%s/%s: local detect: %v", label, w.name, err)
		}
		assertOutcomeIdentical(t, label+"/"+w.name, got, want)
	}
	// Masked windows: a couple of stray global rule rows (churn), then
	// every own row of one switch plus a stray (a missing switch in a
	// lagged window — its shard must not be dispatched), under per-call
	// options the nodes can only have learned from the window itself.
	slices := h.mgr.Slices()
	churn := []int{slices[0].RuleRows[0]}
	if len(slices) > 1 {
		churn = append(churn, slices[len(slices)-1].RuleRows[0])
	}
	blind := append(append([]int(nil), slices[len(slices)/2].OwnRows...), slices[0].RuleRows[0])
	opts := core.Options{Threshold: 3}
	y := h.cleanVector()
	for name, masked := range map[string][]int{"churn": churn, "blind": blind} {
		got, err := c.DetectMasked(y, masked, opts)
		if err != nil {
			t.Fatalf("%s/%s: cluster detect: %v", label, name, err)
		}
		want, err := local.DetectMasked(y, masked, opts)
		if err != nil {
			t.Fatalf("%s/%s: local detect: %v", label, name, err)
		}
		assertOutcomeIdentical(t, label+"/"+name, got, want)
		if name == "blind" && len(got.PerSwitch) != len(slices)-1 {
			t.Fatalf("%s/blind: %d slices checked, want %d (one blinded)", label, len(got.PerSwitch), len(slices)-1)
		}
	}
}

// TestClusterVerdictIdentical is the tentpole acceptance at package
// scope: a 3-node cluster's merged verdicts are bitwise identical to a
// single-process sliced run — cold, and again after rank-one and
// refactoring churn epochs, on clean, anomalous and masked windows.
func TestClusterVerdictIdentical(t *testing.T) {
	h := newHarness(t, 4, 2)
	nodes := startNodes(t, 3)
	c := startCoordinator(t, h, nodes)

	checkWindow(t, "cold", h, c)

	var snaps int64
	for _, nd := range nodes {
		s, _ := nd.SyncCounts()
		snaps += s
	}
	if want := int64(len(h.mgr.Slices())); snaps != want {
		t.Fatalf("cold sync shipped %d snapshots for %d shards", snaps, want)
	}

	// Rank-one epoch: steady-state replication must ship deltas, not
	// fresh snapshots.
	if u := h.addPhantomRule(h.topol.Switches()[0].ID, 1); u.SlicesUpdated == 0 {
		t.Fatalf("phantom rule did not exercise the rank-one path: %+v", u)
	}
	checkWindow(t, "after-delta", h, c)
	var deltas int64
	snapsAfter := int64(0)
	for _, nd := range nodes {
		s, d := nd.SyncCounts()
		snapsAfter += s
		deltas += d
	}
	if snapsAfter != snaps {
		t.Fatalf("rank-one epoch triggered %d fresh snapshots", snapsAfter-snaps)
	}
	if deltas == 0 {
		t.Fatal("rank-one epoch shipped no incremental deltas")
	}

	// Refactoring epoch: affected shards fall back to full snapshots.
	if u := h.addReroutingRule(h.topol.Switches()[1].ID, 900); u.SlicesRefactored == 0 {
		t.Fatalf("rerouting rule did not refactor any slice: %+v", u)
	}
	checkWindow(t, "after-refactor", h, c)
	var snapsFinal int64
	for _, nd := range nodes {
		s, _ := nd.SyncCounts()
		snapsFinal += s
	}
	if snapsFinal == snapsAfter {
		t.Fatal("refactoring epoch shipped no fresh snapshot")
	}

	st := c.Status()
	if st.Degraded || st.Live != 3 || st.Shards != len(h.mgr.Slices()) {
		t.Fatalf("healthy cluster reports %+v", st)
	}
}

// TestClusterNodeJoinMidEpoch pins the join contract: a node added
// after several churn epochs catches up with one full snapshot per
// owned shard (never a delta replay from nowhere), verdicts stay
// identical, and subsequent epochs reach it incrementally.
func TestClusterNodeJoinMidEpoch(t *testing.T) {
	h := newHarness(t, 4, 2)
	nodes := startNodes(t, 2)
	c := startCoordinator(t, h, nodes)

	checkWindow(t, "pre-join", h, c)
	h.addPhantomRule(h.topol.Switches()[0].ID, 1)
	h.addPhantomRule(h.topol.Switches()[2].ID, 2)
	checkWindow(t, "pre-join-churn", h, c)

	// Shard ownership is a hash of the joiner's (ephemeral) address, so
	// pick a listener whose address will own at least one shard and at
	// least one rank-one churn target — simulated on a scratch ring,
	// which is a pure function of the member set.
	var joiner *Node
	var ownedSwitch topo.SwitchID
	for attempt := 0; attempt < 32 && joiner == nil; attempt++ {
		nd, err := NewNode("127.0.0.1:0", NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sim := newRing(0)
		for _, existing := range nodes {
			sim.Add(existing.Addr())
		}
		sim.Add(nd.Addr())
		for _, sl := range h.mgr.Slices() {
			if sim.Owner(sl.Switch) == nd.Addr() {
				joiner = nd
				ownedSwitch = sl.Switch
				break
			}
		}
		if joiner == nil {
			nd.Close()
		}
	}
	if joiner == nil {
		t.Fatal("no candidate joiner address owned a shard in 32 attempts")
	}
	t.Cleanup(func() { joiner.Close() })
	if err := c.AddPeer(joiner.Addr()); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, "post-join", h, c)

	snaps, deltas := joiner.SyncCounts()
	if snaps == 0 {
		t.Fatal("joining node was never shipped a baseline snapshot")
	}
	if deltas != 0 {
		t.Fatalf("joining node received %d deltas before holding a base", deltas)
	}
	if joiner.Shards() == 0 {
		t.Fatal("joining node owns no shards — ring did not rebalance")
	}

	// The next rank-one epoch — on a switch whose shard the joiner owns
	// — must reach it as a delta on the snapshot it just installed.
	if u := h.addPhantomRule(ownedSwitch, 3); u.SlicesUpdated == 0 {
		t.Fatalf("phantom rule did not exercise the rank-one path: %+v", u)
	}
	checkWindow(t, "post-join-churn", h, c)
	snaps2, deltas2 := joiner.SyncCounts()
	if snaps2 != snaps {
		t.Fatalf("post-join epoch re-shipped %d snapshots to the joiner", snaps2-snaps)
	}
	if deltas2 == 0 {
		t.Fatal("post-join epoch shipped the joiner no delta")
	}

	if st := c.Status(); st.Live != 3 || st.Configured != 3 || st.Degraded {
		t.Fatalf("after join, status %+v", st)
	}
}

// TestClusterNodeDeathMidWindow kills a node while it holds in-flight
// shards of a dispatched window and requires the coordinator to
// requeue them to survivors and still produce the bitwise-identical
// merged verdict.
func TestClusterNodeDeathMidWindow(t *testing.T) {
	h := newHarness(t, 4, 2)
	nodes := startNodes(t, 3)
	c := startCoordinator(t, h, nodes)

	// Warm sync so the kill exercises requeue, not cold shipment.
	checkWindow(t, "warm", h, c)

	// Pick a victim that owns at least one shard.
	byAddr := make(map[string]*Node)
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	var victim *Node
	for _, ps := range c.Status().Peers {
		if ps.Shards > 0 {
			victim = byAddr[ps.Addr]
			break
		}
	}
	if victim == nil {
		t.Fatal("no peer owns a shard")
	}
	victim.SetWindowDelay(400 * time.Millisecond)

	y := h.anomalousVector()
	want, err := h.mgr.Sliced().DetectWithOptions(y, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		out core.SlicedOutcome
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		out, err := c.DetectMasked(y, nil, core.Options{})
		res <- outcome{out, err}
	}()
	time.Sleep(100 * time.Millisecond)
	victim.Close()
	got := <-res
	if got.err != nil {
		t.Fatalf("window across node death: %v", got.err)
	}
	assertOutcomeIdentical(t, "node-death", got.out, want)

	st := c.Status()
	if !st.Degraded || st.Live != 2 || st.Evictions == 0 {
		t.Fatalf("after node death, status %+v", st)
	}

	// The shrunken cluster keeps serving identical verdicts.
	checkWindow(t, "post-death", h, c)
}

// TestClusterCoordinatorRestart pins recovery on the coordinator side:
// a fresh coordinator over the same baseline (rebuilt from the churn
// epoch log it owns) reconnects to the surviving nodes with empty sync
// bookkeeping, re-ships what they need, and serves identical verdicts.
func TestClusterCoordinatorRestart(t *testing.T) {
	h := newHarness(t, 4, 2)
	nodes := startNodes(t, 3)

	c1 := startCoordinator(t, h, nodes)
	checkWindow(t, "first-life", h, c1)
	h.addPhantomRule(h.topol.Switches()[0].ID, 1)
	checkWindow(t, "first-life-churn", h, c1)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := startCoordinator(t, h, nodes)
	checkWindow(t, "second-life", h, c2)
	if st := c2.Status(); st.Live != 3 || st.Degraded {
		t.Fatalf("restarted coordinator status %+v", st)
	}
}

// TestClusterLocalFallback pins the zero-capacity degraded mode: with
// every node dead the coordinator still answers windows (locally) with
// the identical outcome and flags itself degraded.
func TestClusterLocalFallback(t *testing.T) {
	h := newHarness(t, 3, 2)
	nodes := startNodes(t, 2)
	c := startCoordinator(t, h, nodes)
	checkWindow(t, "healthy", h, c)

	for _, nd := range nodes {
		nd.Close()
	}
	// Evictions land asynchronously (read-loop error or heartbeat
	// timeout); windows are correct throughout either way.
	checkWindow(t, "all-dead", h, c)

	deadline := time.After(5 * time.Second)
	for {
		if st := c.Status(); st.Live == 0 && st.Degraded {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("coordinator never noticed both nodes died: %+v", c.Status())
		case <-time.After(10 * time.Millisecond):
		}
	}
	checkWindow(t, "degraded", h, c)
}
