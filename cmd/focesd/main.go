// Command focesd runs a live FOCES detection loop against a simulated
// SDN: it bootstraps a topology, installs rules through the
// OpenFlow-like control channel, drives traffic, injects a forwarding
// anomaly partway through, and prints the anomaly index each detection
// period — the Fig. 7 functional test as an interactive demo, wired
// end-to-end through the statistics-collection glue.
//
// Every role that detects runs one loop: a pump fetches cumulative
// counter snapshots through the fault-tolerant
// collector.RobustCollector (per-request deadlines with retries,
// flapping switches quarantined and probed back in) and pushes them
// into a collector.WindowAssembler, which differences them into
// per-period windows and finds counter resets instead of reading them
// as anomalies; completed windows flow through foces.System.Serve,
// which masks missing switches and rows changed since a straddled
// window's epoch. The -kill-at / -reset-at flags inject collection
// faults mid-run; -sample adds the adaptive per-switch sampler (stable
// switches are polled less often, suspects are tightened back
// immediately). In the coordinator role Serve shards each window's
// sliced stage across the -peers detector nodes. SIGINT/SIGTERM
// triggers a graceful drain of the window queue before exit. The
// -metrics-addr flag exposes the internal telemetry registry as a
// Prometheus /metrics endpoint plus the pprof profiling surface.
//
// Usage:
//
//	focesd [-topo bcube14] [-periods 36] [-attack-at 12] [-repair-at 24]
//	       [-loss 0.05] [-threshold 4.5] [-volume 1000] [-seed 1]
//	       [-consecutive 2] [-skip-verify] [-http 127.0.0.1:8080]
//	       [-metrics-addr 127.0.0.1:9090] [-save-baseline baseline.json]
//	       [-interval 0] [-kill-at 0] [-kill-switch -1] [-reset-at 0]
//	       [-reset-switch -1] [-churn-every 0] [-sample] [-localize]
//	       [-role standalone] [-peers host:port,...] [-listen addr]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"foces"
	"foces/internal/cluster"
	"foces/internal/collector"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/experiment"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/openflow"
	"foces/internal/persist"
	"foces/internal/telemetry"
	"foces/internal/topo"
	"foces/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "focesd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("focesd", flag.ContinueOnError)
	topoName := fs.String("topo", "bcube14", "topology name")
	periods := fs.Int("periods", 36, "number of detection periods")
	attackAt := fs.Int("attack-at", 12, "period at which a random rule is compromised (0 = never)")
	repairAt := fs.Int("repair-at", 24, "period at which the rule is repaired")
	loss := fs.Float64("loss", 0.05, "per-link packet loss probability")
	threshold := fs.Float64("threshold", 4.5, "anomaly-index threshold T")
	volume := fs.Uint64("volume", 1000, "packets per flow per period")
	seed := fs.Int64("seed", 1, "random seed")
	consecutive := fs.Int("consecutive", 2, "periods above threshold before the debounced alarm fires")
	skipVerify := fs.Bool("skip-verify", false, "skip intent verification at startup")
	httpAddr := fs.String("http", "", "serve GET /status on this address (e.g. 127.0.0.1:8080)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus GET /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	saveBaseline := fs.String("save-baseline", "", "write the detection baseline (topology+rules) to this file")
	killAt := fs.Int("kill-at", 0, "period at which a switch's control channel dies (0 = never)")
	killSwitch := fs.Int("kill-switch", -1, "switch to kill at -kill-at (-1 = auto-pick)")
	resetAt := fs.Int("reset-at", 0, "period at which a switch reboots and zeroes its counters (0 = never)")
	resetSwitch := fs.Int("reset-switch", -1, "switch to reset at -reset-at (-1 = auto-pick)")
	churnEvery := fs.Int("churn-every", 0, "apply a rule update (remove one rule, add one) every N periods, mid-window (0 = never)")
	interval := fs.Duration("interval", 0, "sleep between detection periods, like a real collection interval (0 = run flat out)")
	sample := fs.Bool("sample", false, "enable the adaptive per-switch sampler (back off stable switches, tighten suspects)")
	localize := fs.Bool("localize", false, "on anomalous windows, run active-probe localization and report the accused rule (/status localization block, foces_probe_* metrics)")
	role := fs.String("role", "standalone", "process role: standalone (detect in-process), coordinator (shard Algorithm 2 across -peers), detector (serve slice shards on -listen)")
	peers := fs.String("peers", "", "coordinator role: comma-separated detector addresses (host:port,host:port,...)")
	listen := fs.String("listen", "127.0.0.1:0", "detector role: TCP address to serve shards on")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *role {
	case "standalone", "coordinator", "detector":
	default:
		return fmt.Errorf("bad -role %q: want standalone, coordinator or detector", *role)
	}
	if *role == "coordinator" && *peers == "" {
		return fmt.Errorf("-role coordinator needs -peers")
	}
	if *role == "detector" {
		// A detector node carries no topology or baseline of its own:
		// everything it detects with arrives over the wire from its
		// coordinator (snapshot or rank-one deltas, then windows).
		return runDetector(*listen, out)
	}

	t, err := topo.ByName(*topoName)
	if err != nil {
		return err
	}
	layout := header.FiveTuple()
	ctrl, err := controller.New(t, layout, controller.PairExact)
	if err != nil {
		return err
	}
	if err := ctrl.ComputeRules(); err != nil {
		return err
	}
	if !*skipVerify {
		rep, err := verify.Intent(t, layout, ctrl.Rules())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		if !rep.OK() {
			return fmt.Errorf("intent verification failed; refusing to use it as detection baseline")
		}
	}

	if *saveBaseline != "" {
		fh, err := os.Create(*saveBaseline)
		if err != nil {
			return err
		}
		err = persist.Save(fh, t, layout, ctrl.Rules())
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "baseline saved to %s\n", *saveBaseline)
	}

	var statusSrv *statusServer
	if *httpAddr != "" {
		var err error
		statusSrv, err = startStatusServer(*httpAddr)
		if err != nil {
			return err
		}
		defer statusSrv.Close()
		fmt.Fprintf(out, "status: http://%s/status\n", statusSrv.Addr())
	}

	network := dataplane.NewNetwork(t, layout)
	if err := network.SetLinkLoss(*loss); err != nil {
		return err
	}

	// Wire the control plane: agents per switch, rule installation via
	// FlowMods, statistics collection via the fault-tolerant collector
	// (the pump's first round primes every switch's delta baseline).
	harness, err := collector.NewHarness(network)
	if err != nil {
		return err
	}
	defer harness.Close()
	if err := collector.InstallRules(harness.Clients, ctrl.Rules()); err != nil {
		return err
	}
	robust := collector.NewRobust(harness.Clients, collector.RobustConfig{
		Deadline:        time.Second,
		Attempts:        3,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
		QuarantineAfter: 2,
		ProbeEvery:      3,
		Seed:            *seed,
	})
	// Resolve fault-injection targets.
	sws := t.Switches()
	pickSwitch := func(flagVal, fallbackIdx int) topo.SwitchID {
		if flagVal >= 0 {
			return topo.SwitchID(flagVal)
		}
		return sws[fallbackIdx%len(sws)].ID
	}
	killTarget := pickSwitch(*killSwitch, len(sws)/3)
	resetTarget := pickSwitch(*resetSwitch, (2*len(sws))/3)
	if *killAt > 0 && *resetAt > 0 && killTarget == resetTarget {
		return fmt.Errorf("kill and reset target the same switch %d", killTarget)
	}

	// The System owns the epoch-versioned baseline: FCM, slices and the
	// prepared engines, with the threshold baked in at construction.
	// Steady-state periods pay only triangular solves; a rule update
	// (-churn-every) re-traces affected sources and repairs slice
	// engines incrementally instead of rebuilding.
	sys, err := foces.NewSystemFromParts(t, layout, ctrl, network, foces.DetectOptions{Threshold: *threshold})
	if err != nil {
		return err
	}
	f := sys.FCM()

	// Telemetry is always wired — the registry is atomics-only and
	// near-free when nobody scrapes; -metrics-addr decides whether it is
	// exposed over HTTP.
	reg := telemetry.New()
	sys.EnableTelemetry(reg)
	robust.SetTelemetry(telemetry.NewCollectorMetrics(reg))
	runtimeTel := telemetry.NewRuntimeMetrics(reg)
	runtimeSampler := telemetry.NewRuntimeSampler(runtimeTel)
	var metricsSrv *metricsServer
	if *metricsAddr != "" {
		metricsSrv, err = startMetricsServer(*metricsAddr, reg, runtimeSampler)
		if err != nil {
			return err
		}
		defer metricsSrv.Close()
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", metricsSrv.Addr())
	}

	// In the coordinator role Algorithm 2 is sharded across remote
	// detector nodes: every period's sliced stage goes through the
	// cluster coordinator (with local fallback when no node is live),
	// while window assembly, the full-FCM stage and churn absorption
	// stay in this process.
	var coord *cluster.Coordinator
	if *role == "coordinator" {
		var addrs []string
		for _, a := range strings.Split(*peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord, err = cluster.New(sys.ChurnManager(), core.Options{Threshold: *threshold},
			cluster.Config{Peers: addrs}, telemetry.NewClusterMetrics(reg))
		if err != nil {
			return err
		}
		defer coord.Close()
		cs := coord.Status()
		fmt.Fprintf(out, "cluster: coordinating %d detector nodes, %d shards\n", cs.Live, cs.Shards)
	}

	fmt.Fprintf(out, "focesd: %s, %d flows, %d rules, %d slices (%d workers), loss=%s, T=%.1f\n",
		t.Name(), f.NumFlows(), f.NumRules(), len(sys.Slices()), sys.SlicedDetector().Workers(), experiment.FormatPct(*loss), *threshold)

	rng := rand.New(rand.NewSource(*seed))
	tm := dataplane.UniformTraffic(t, *volume)
	monitor := core.NewMonitor(core.MonitorConfig{Threshold: *threshold, Consecutive: *consecutive})

	// -localize opts every window into active-probe diagnosis: clean
	// verdicts cost nothing, anomalous ones spend a probe budget to name
	// the compromised rule.
	var locCfg *foces.LocalizeConfig
	if *localize {
		locCfg = &foces.LocalizeConfig{Seed: *seed}
	}

	return runStream(streamEnv{
		out: out, t: t, layout: layout, ctrl: ctrl, network: network,
		harness: harness, robust: robust, sys: sys, coord: coord, reg: reg,
		statusSrv: statusSrv, metricsSrv: metricsSrv,
		runtimeTel: runtimeTel, runtimeSampler: runtimeSampler,
		rng: rng, tm: tm, monitor: monitor,
		periods: *periods, attackAt: *attackAt, repairAt: *repairAt,
		killAt: *killAt, killTarget: killTarget,
		resetAt: *resetAt, resetTarget: resetTarget,
		churnEvery: *churnEvery, interval: *interval, sample: *sample,
		localize: locCfg,
	})
}

// runDetector serves slice shards for a remote coordinator until
// SIGINT/SIGTERM: baselines arrive as CSR snapshots or rank-one deltas,
// windows as framed sub-vectors, verdicts go back per shard.
func runDetector(listen string, out io.Writer) error {
	node, err := cluster.NewNode(listen, cluster.NodeConfig{})
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Fprintf(out, "detector: serving shards on %s (ctrl-c to stop)\n", node.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	windows := node.WindowsProcessed()
	snaps, deltas := node.SyncCounts()
	fmt.Fprintf(out, "detector: shutting down after %d windows (%d snapshot syncs, %d delta syncs)\n",
		windows, snaps, deltas)
	return nil
}

// injectChurn applies one live rule update end to end: remove a random
// live rule and add a fresh src-pinned drop rule, mutating the
// controller's intent AND the switches (via FlowMods on the control
// channel), and returns the event batch for the churn manager.
func injectChurn(rng *rand.Rand, ctrl *controller.Controller, layout *header.Layout, t *topo.Topology, clients map[topo.SwitchID]*openflow.Client) ([]controller.RuleChange, error) {
	live := ctrl.Rules()
	victim := live[rng.Intn(len(live))]
	if _, err := ctrl.RemoveRule(victim.ID); err != nil {
		return nil, err
	}
	if err := clients[victim.Switch].DeleteRule(victim.ID); err != nil {
		return nil, fmt.Errorf("delete rule %d on switch %d: %w", victim.ID, victim.Switch, err)
	}
	hosts := t.Hosts()
	h := hosts[rng.Intn(len(hosts))]
	match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, h.IP)
	if err != nil {
		return nil, err
	}
	sws := t.Switches()
	sw := sws[rng.Intn(len(sws))].ID
	added, err := ctrl.AddRule(sw, 500, match, flowtable.Action{Type: flowtable.ActionDrop})
	if err != nil {
		return nil, err
	}
	if err := clients[sw].InstallRule(added); err != nil {
		return nil, fmt.Errorf("install rule %d on switch %d: %w", added.ID, sw, err)
	}
	return []controller.RuleChange{
		{Op: controller.RuleRemoved, Rule: victim},
		{Op: controller.RuleAdded, Rule: added},
	}, nil
}

// clampIndex bounds +Inf anomaly indices for JSON encoding.
func clampIndex(v float64) float64 {
	if math.IsInf(v, 1) || v > 1e6 {
		return 1e6
	}
	return v
}
