package experiment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"time"

	"foces"
	"foces/internal/cluster"
	"foces/internal/core"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

// ClusterConfig drives the sharded multi-node detection experiment.
type ClusterConfig struct {
	// Topology names the fabric; empty selects "fattree16" (the ISSUE's
	// acceptance scale: 320 switches, 1024 hosts).
	Topology string
	// Flows is the number of monitored host pairs; zero selects 2048.
	Flows int
	// Seed drives traffic randomness.
	Seed int64
	// EquivWindows is the byte-equivalence phase length; zero selects 6.
	EquivWindows int
	// ThroughputWindows is the per-arm window count of the throughput
	// phase; zero selects 24.
	ThroughputWindows int
	// Nodes is the detector-node count of the multi-node arm; zero
	// selects 3.
	Nodes int
	// IntervalSecs is the collection interval every distributed window
	// must fit inside; zero selects the paper's 5 s.
	IntervalSecs float64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Topology == "" {
		c.Topology = "fattree16"
	}
	if c.Flows == 0 {
		c.Flows = 2048
	}
	if c.EquivWindows == 0 {
		c.EquivWindows = 6
	}
	if c.ThroughputWindows == 0 {
		c.ThroughputWindows = 24
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.IntervalSecs == 0 {
		c.IntervalSecs = 5
	}
	return c
}

// ClusterWindow records one equivalence-phase window.
type ClusterWindow struct {
	Window    int    `json:"window"`
	Path      string `json:"path"`
	Anomalous bool   `json:"anomalous"`
	Match     bool   `json:"match"`
}

// ClusterResult is the archived outcome of the cluster experiment.
type ClusterResult struct {
	Topology   string `json:"topology"`
	Switches   int    `json:"switches"`
	Hosts      int    `json:"hosts"`
	Flows      int    `json:"flows"`
	Rules      int    `json:"rules"`
	Shards     int    `json:"shards"`
	Nodes      int    `json:"nodes"`
	GoMaxProcs int    `json:"goMaxProcs"`

	// Equivalence phase: every System.RunWith report across the cluster
	// must be byte-identical to the single-process System.Run report on
	// the same observation — clean, attacked and churn-reconciled
	// windows alike.
	EquivWindows  int             `json:"equivWindows"`
	Windows       []ClusterWindow `json:"windows"`
	VerdictsMatch bool            `json:"verdictsMatch"`
	Mismatch      string          `json:"mismatch,omitempty"`
	SnapshotSyncs int64           `json:"snapshotSyncs"`
	DeltaSyncs    int64           `json:"deltaSyncs"`

	// Node-kill phase: a node dies while its window shards are in
	// flight; the requeued window must still match the local report.
	KillMatch         bool   `json:"killMatch"`
	Evictions         uint64 `json:"evictions"`
	RequeuedShards    uint64 `json:"requeuedShards"`
	DegradedAfterKill bool   `json:"degradedAfterKill"`

	// Throughput phase: the same window set through a 1-node and an
	// N-node cluster, 4 concurrent RunWith workers each.
	ThroughputWindows int     `json:"throughputWindows"`
	OneNodeSecs       float64 `json:"oneNodeSecs"`
	MultiNodeSecs     float64 `json:"multiNodeSecs"`
	ThroughputRatio   float64 `json:"throughputRatio"`
	ThroughputGated   bool    `json:"throughputGated"`
	FirstWindowSecs   float64 `json:"firstWindowSecs"`
	MaxWindowSecs     float64 `json:"maxWindowSecs"`
	IntervalSecs      float64 `json:"intervalSecs"`
	WithinInterval    bool    `json:"withinInterval"`
}

// clusterPairs enumerates k monitored pairs with cross-pod strides
// (every host sends to hosts roughly half the fabric away), so paths
// traverse edge, aggregation and core layers and every switch carries
// detection work. spreadPairs' small strides would keep most pairs on
// one edge switch — a one-hop "cluster" with nothing to distribute.
func clusterPairs(t *topo.Topology, k int) ([][2]topo.HostID, error) {
	hosts := t.Hosts()
	n := len(hosts)
	if k < 1 || k > n*(n-1) {
		return nil, fmt.Errorf("experiment: %d flows outside [1, %d] for %s", k, n*(n-1), t.Name())
	}
	pairs := make([][2]topo.HostID, 0, k)
	for d := n / 2; len(pairs) < k; d = (d % (n - 1)) + 1 {
		for i := 0; i < n && len(pairs) < k; i++ {
			pairs = append(pairs, [2]topo.HostID{hosts[i].ID, hosts[(i+d)%n].ID})
		}
	}
	return pairs, nil
}

// clusterFleet is one coordinator plus its in-process detector nodes.
type clusterFleet struct {
	nodes []*cluster.Node
	coord *cluster.Coordinator
}

func startFleet(sys *foces.System, n int) (*clusterFleet, error) {
	f := &clusterFleet{}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		nd, err := cluster.NewNode("127.0.0.1:0", cluster.NodeConfig{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		addrs = append(addrs, nd.Addr())
	}
	coord, err := cluster.New(sys.ChurnManager(), core.Options{}, cluster.Config{Peers: addrs}, nil)
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *clusterFleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, nd := range f.nodes {
		nd.Close()
	}
}

func (f *clusterFleet) syncCounts() (snapshots, deltas int64) {
	for _, nd := range f.nodes {
		s, d := nd.SyncCounts()
		snapshots += s
		deltas += d
	}
	return
}

// observeCounters runs one cumulative-free traffic interval and
// returns the per-rule counter snapshot, keyed by global rule ID so
// System.CounterVector can place it against the CURRENT rule space —
// valid across churn epochs, unlike env's dense vectors, which freeze
// the rule space the Env was built with.
func observeCounters(env *Env) (map[int]uint64, error) {
	env.Net.ResetCounters()
	if _, err := env.Net.Run(env.Rng, env.traffic); err != nil {
		return nil, err
	}
	return env.Net.CollectCounters(), nil
}

// Cluster runs the sharded multi-node detection experiment: byte
// equivalence of distributed vs single-process reports across clean,
// attacked and churn-reconciled windows; verdict survival of a node
// killed mid-window; and detect throughput of an N-node cluster
// against a single node under concurrent windows.
func Cluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return ClusterResult{}, err
	}
	pairs, err := clusterPairs(t, cfg.Flows)
	if err != nil {
		return ClusterResult{}, err
	}
	env, err := NewEnvOn(Config{Seed: cfg.Seed, Topology: cfg.Topology}, t, pairs)
	if err != nil {
		return ClusterResult{}, err
	}
	sys, err := env.System()
	if err != nil {
		return ClusterResult{}, err
	}
	if err := env.Net.SetLinkLoss(0.02); err != nil {
		return ClusterResult{}, err
	}
	res := ClusterResult{
		Topology:          cfg.Topology,
		Switches:          t.NumSwitches(),
		Hosts:             t.NumHosts(),
		Flows:             cfg.Flows,
		Rules:             sys.FCM().NumRules(),
		Shards:            len(sys.Slices()),
		Nodes:             cfg.Nodes,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		EquivWindows:      cfg.EquivWindows,
		ThroughputWindows: cfg.ThroughputWindows,
		IntervalSecs:      cfg.IntervalSecs,
	}

	fleet, err := startFleet(sys, cfg.Nodes)
	if err != nil {
		return res, err
	}
	defer fleet.close()

	if err := clusterEquivalence(cfg, env, sys, fleet, &res); err != nil {
		return res, err
	}
	if err := clusterKill(env, sys, fleet, &res); err != nil {
		return res, err
	}
	if err := clusterThroughput(cfg, env, sys, &res); err != nil {
		return res, err
	}
	return res, nil
}

// clusterEquivalence drives the shared coordinator through clean
// windows, an attacked stretch, and churn-reconciled windows (one
// rank-one rule add, one refactoring rule add), comparing every
// RunWith report byte for byte against Run.
func clusterEquivalence(cfg ClusterConfig, env *Env, sys *foces.System, fleet *clusterFleet, res *ClusterResult) error {
	epoch0 := sys.Epoch()
	attackAt := 1
	phantomAt := cfg.EquivWindows / 2
	refactorAt := phantomAt + 1

	// An exact-match source IP no host owns: a rule matching it changes
	// a slice's row set but reroutes no traffic, forcing the rank-one
	// (incremental delta) replication path.
	phantomIP := uint64(0)
	for _, h := range envHosts(env) {
		if h.IP >= phantomIP {
			phantomIP = h.IP + 1
		}
	}

	res.VerdictsMatch = true
	for w := 0; w < cfg.EquivWindows; w++ {
		switch w {
		case attackAt:
			if _, err := env.ApplyRandomAttacks(1); err != nil {
				return err
			}
		case phantomAt:
			match, err := env.Layout.MatchExact(env.Layout.Wildcard(), header.FieldSrcIP, phantomIP)
			if err != nil {
				return err
			}
			sw := env.Topo.Switches()[0].ID
			if _, _, err := sys.AddRule(sw, 600, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
				return err
			}
		case refactorAt:
			// A source-pinned drop on the host's own edge switch captures
			// all its flows: affected slices refactor, so replication
			// falls back to snapshot re-shipment.
			h := envHosts(env)[0]
			match, err := env.Layout.MatchExact(env.Layout.Wildcard(), header.FieldSrcIP, h.IP)
			if err != nil {
				return err
			}
			if _, _, err := sys.AddRule(h.Attach, 700, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
				return err
			}
		}
		counters, err := observeCounters(env)
		if err != nil {
			return err
		}
		obs := foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Epoch: sys.Epoch()}}
		if w >= phantomAt {
			// Tag post-churn windows with the pre-churn epoch: the
			// reconciled path masks the changed rows — distributed via
			// the coordinator's DetectMasked.
			obs.Epoch = epoch0
		}
		local, err := sys.Run(obs)
		if err != nil {
			return fmt.Errorf("window %d: local run: %w", w, err)
		}
		dist, err := sys.RunWith(obs, fleet.coord)
		if err != nil {
			return fmt.Errorf("window %d: cluster run: %w", w, err)
		}
		lb, err := normalizeReport(local)
		if err != nil {
			return err
		}
		db, err := normalizeReport(dist)
		if err != nil {
			return err
		}
		match := string(lb) == string(db)
		res.Windows = append(res.Windows, ClusterWindow{Window: w, Path: local.Path, Anomalous: local.Anomalous, Match: match})
		if !match {
			res.VerdictsMatch = false
			if res.Mismatch == "" {
				res.Mismatch = fmt.Sprintf("window %d (%s): cluster report diverged from local (%d vs %d bytes)",
					w, local.Path, len(db), len(lb))
			}
		}
	}
	res.SnapshotSyncs, res.DeltaSyncs = fleet.syncCounts()
	return nil
}

// envHosts avoids repeating the topology walk at each use site.
func envHosts(env *Env) []*topo.Host { return env.Topo.Hosts() }

// clusterKill delays a shard-owning node's window processing, kills it
// while a window is in flight, and requires the requeued verdict to
// match the local report byte for byte.
func clusterKill(env *Env, sys *foces.System, fleet *clusterFleet, res *ClusterResult) error {
	byAddr := make(map[string]*cluster.Node)
	for _, nd := range fleet.nodes {
		byAddr[nd.Addr()] = nd
	}
	var victim *cluster.Node
	for _, ps := range fleet.coord.Status().Peers {
		if ps.Alive && ps.Shards > 0 {
			victim = byAddr[ps.Addr]
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("cluster kill: no live peer owns a shard")
	}
	counters, err := observeCounters(env)
	if err != nil {
		return err
	}
	obs := foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Epoch: sys.Epoch(), Mode: foces.ModeSliced}}
	local, err := sys.Run(obs)
	if err != nil {
		return err
	}
	victim.SetWindowDelay(400 * time.Millisecond)
	type outcome struct {
		rep foces.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := sys.RunWith(obs, fleet.coord)
		done <- outcome{rep, err}
	}()
	time.Sleep(100 * time.Millisecond)
	victim.Close()
	out := <-done
	if out.err != nil {
		return fmt.Errorf("cluster kill: window across node death: %w", out.err)
	}
	lb, err := normalizeReport(local)
	if err != nil {
		return err
	}
	db, err := normalizeReport(out.rep)
	if err != nil {
		return err
	}
	res.KillMatch = string(lb) == string(db)
	st := fleet.coord.Status()
	res.Evictions = st.Evictions
	res.RequeuedShards = st.RequeuedShards
	res.DegradedAfterKill = st.Degraded
	return nil
}

// clusterThroughput replays one pre-generated window set through a
// 1-node and an N-node cluster — fresh fleets, 4 concurrent RunWith
// workers, sliced stage only — and records the wall-clock ratio plus
// the per-window ceiling of the multi-node arm.
func clusterThroughput(cfg ClusterConfig, env *Env, sys *foces.System, res *ClusterResult) error {
	windows := make([]foces.Observation, cfg.ThroughputWindows)
	for i := range windows {
		counters, err := observeCounters(env)
		if err != nil {
			return err
		}
		windows[i] = foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Epoch: sys.Epoch(), Mode: foces.ModeSliced}}
	}
	arm := func(nodes int) (wall, first, maxWarm float64, err error) {
		fleet, err := startFleet(sys, nodes)
		if err != nil {
			return 0, 0, 0, err
		}
		defer fleet.close()
		// First window pays the full baseline shipment (every shard's
		// snapshot) — timed separately so the steady-state ratio is not
		// polluted by one-time sync cost.
		t0 := time.Now()
		if _, err := sys.RunWith(windows[0], fleet.coord); err != nil {
			return 0, 0, 0, err
		}
		first = time.Since(t0).Seconds()
		const workers = 4
		var mu sync.Mutex
		var firstErr error
		idx := make(chan int)
		var wg sync.WaitGroup
		start := time.Now()
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					w0 := time.Now()
					_, err := sys.RunWith(windows[i], fleet.coord)
					d := time.Since(w0).Seconds()
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("throughput window %d: %w", i, err)
					}
					if d > maxWarm {
						maxWarm = d
					}
					mu.Unlock()
				}
			}()
		}
		for i := range windows {
			idx <- i
		}
		close(idx)
		wg.Wait()
		return time.Since(start).Seconds(), first, maxWarm, firstErr
	}
	one, _, _, err := arm(1)
	if err != nil {
		return err
	}
	multi, first, maxWarm, err := arm(cfg.Nodes)
	if err != nil {
		return err
	}
	res.OneNodeSecs = one
	res.MultiNodeSecs = multi
	if multi > 0 {
		res.ThroughputRatio = one / multi
	}
	res.FirstWindowSecs = first
	res.MaxWindowSecs = maxWarm
	// The throughput gate is only meaningful when the host can actually
	// run the in-process nodes in parallel.
	res.ThroughputGated = res.GoMaxProcs >= 4
	res.WithinInterval = first < res.IntervalSecs && maxWarm < res.IntervalSecs
	return nil
}

// normalizeReport strips wall-time fields and encodes the Report so
// two Reports produced by different code paths can be compared byte
// for byte. Gob rather than JSON: anomaly indices can be +Inf (zero
// median), which JSON cannot represent, and the Report's nested
// results hold only slices and scalars, so gob encoding is
// deterministic.
func normalizeReport(rep foces.Report) ([]byte, error) {
	rep.Timings = foces.RunTimings{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
