package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"foces"
	"foces/internal/cluster"
	"foces/internal/collector"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/experiment"
	"foces/internal/header"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// streamEnv carries the bootstrapped daemon state into the detection
// loop: topology, control plane, system, telemetry and the fault,
// attack and churn schedule.
type streamEnv struct {
	out        io.Writer
	t          *topo.Topology
	layout     *header.Layout
	ctrl       *controller.Controller
	network    *dataplane.Network
	harness    *collector.Harness
	robust     *collector.RobustCollector
	sys        *foces.System
	coord      *cluster.Coordinator // nil outside -role coordinator
	reg        *telemetry.Registry
	statusSrv  *statusServer
	metricsSrv *metricsServer

	// runtimeTel / runtimeSampler feed the /status runtime block (and
	// are shared with the /metrics scrape path).
	runtimeTel     *telemetry.RuntimeMetrics
	runtimeSampler *telemetry.RuntimeSampler
	rng            *rand.Rand
	tm             dataplane.TrafficMatrix
	monitor        *core.Monitor

	periods     int
	attackAt    int
	repairAt    int
	killAt      int
	killTarget  topo.SwitchID
	resetAt     int
	resetTarget topo.SwitchID
	churnEvery  int
	interval    time.Duration
	sample      bool
	localize    *foces.LocalizeConfig
}

// shutdownDeadline bounds the graceful teardown of the metrics server.
const shutdownDeadline = 2 * time.Second

// lockedWriter serialises the pump's and the consumer's output lines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// runStream is focesd's detection loop: a pump fetches raw cumulative
// snapshots (PollSnapshots) and pushes them into a WindowAssembler,
// whose completed windows flow through System.Serve continuously.
// SIGINT or SIGTERM triggers a graceful shutdown: the pump stops, the
// assembler flushes its pending window, Serve drains every remaining
// window, a final /status snapshot is published, and the metrics
// server stops under a deadline.
func runStream(env streamEnv) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out := &lockedWriter{w: env.out}

	sws := env.t.Switches()
	ids := make([]topo.SwitchID, len(sws))
	for i, sw := range sws {
		ids[i] = sw.ID
	}
	var sampler *collector.AdaptiveSampler
	if env.sample {
		sampler = collector.NewAdaptiveSampler(ids, collector.SamplerConfig{})
	}
	streamTel := telemetry.NewStreamMetrics(env.reg)
	asm := collector.NewWindowAssembler(ids, collector.StreamConfig{Sampler: sampler})
	asm.SetTelemetry(streamTel)
	asm.SetEpoch(env.sys.Epoch())

	// A nil *cluster.Coordinator must not become a non-nil interface.
	var sliced foces.SlicedRunner
	if env.coord != nil {
		sliced = env.coord
	}
	// Serve drains independently of the pump's context so a shutdown
	// can flush queued windows; the watchdog below bounds the drain.
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	reports, err := env.sys.Serve(serveCtx, foces.StreamConfig{
		Windows:   asm.Windows(),
		Localize:  env.localize,
		Sampler:   sampler,
		Telemetry: streamTel,
		Sliced:    sliced,
	})
	if err != nil {
		return err
	}

	// Consumer: one goroutine turns StreamReports into table rows,
	// window notices, monitor feeds, latency samples and /status
	// updates.
	type consumed struct {
		rows      [][]string
		latencies []time.Duration
	}
	done := make(chan consumed, 1)
	go func() {
		var c consumed
		for sr := range reports {
			// Window 1 is the priming round (skipped by Serve); window
			// seq p+1 carries period p's traffic.
			period := int(sr.Window) - 1
			if sr.Err != nil {
				fmt.Fprintf(out, ">> period %d: detection error: %v\n", period, sr.Err)
				continue
			}
			rep := sr.Report
			if sr.Latency > 0 {
				c.latencies = append(c.latencies, sr.Latency)
			}
			// The churn manager publishes each baseline generation under
			// its lock; System.FCM would race the pump's updates.
			reportWindow(out, env.sys.ChurnManager().FCM(), period, sr)
			res := repResult(rep)
			mv := env.monitor.Feed(res.Index)
			verdict := "ok"
			if res.Anomalous {
				verdict = "ANOMALY"
			}
			alarm := ""
			if mv.Alert {
				alarm = "ALARM"
			}
			var slicedIdx float64
			var suspects []topo.SwitchID
			if rep.Sliced != nil {
				slicedIdx = rep.Sliced.MaxIndex()
				suspects = rep.Sliced.Suspects
			}
			attackActive := env.attackAt > 0 && period >= env.attackAt &&
				(env.repairAt <= env.attackAt || period < env.repairAt)
			if env.statusSrv != nil {
				sv := streamStatus(asm.Stats(), sampler, sr.Window, sr.Latency, percentileDur(c.latencies, 0.99))
				env.statusSrv.Update(status{
					Period:           period,
					AttackActive:     attackActive,
					Cluster:          clusterStatus(env.coord),
					Index:            clampIndex(res.Index),
					Anomalous:        res.Anomalous,
					Alarm:            mv.Alert,
					SlicedIndex:      clampIndex(slicedIdx),
					Suspects:         suspects,
					Localization:     rep.Localization,
					MissingSwitches:  len(rep.Missing),
					StraddledWindows: sr.Straddled,
					Collection:       collectionStatus(env.robust, asm.Stats()),
					Churn:            churnStatus(env.sys.ChurnStats()),
					Stream:           &sv,
					Runtime:          runtimeStatus(env.runtimeSampler, env.runtimeTel),
					Recent:           env.sys.RecentRuns(),
				})
			}
			c.rows = append(c.rows, []string{
				fmt.Sprint(period),
				fmt.Sprint(attackActive),
				experiment.FormatIndex(res.Index),
				verdict,
				alarm,
				experiment.FormatIndex(slicedIdx),
				formatSuspects(suspects),
			})
		}
		done <- c
	}()

	// Pump: round 0 primes every switch's delta baseline (its window is
	// all-missing and skipped by Serve), then one round per period after
	// that period's attack, fault and churn events.
	var active *dataplane.Attack
	var quarantines uint64
	pumpErr := func() error {
		if _, err := pumpRound(ctx, env.robust, asm); err != nil {
			return err
		}
		for p := 1; p <= env.periods; p++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if env.attackAt > 0 && p == env.attackAt && active == nil {
				atk, err := dataplane.RandomAttack(env.rng, env.network, dataplane.AttackPortSwap)
				if err != nil {
					return err
				}
				if err := atk.Apply(env.network); err != nil {
					return err
				}
				active = &atk
				fmt.Fprintf(out, ">> period %d: compromising switch %d (rule %d -> %v)\n",
					p, atk.Switch, atk.RuleID, atk.NewAction)
			}
			if active != nil && p == env.repairAt {
				if err := active.Revert(env.network); err != nil {
					return err
				}
				fmt.Fprintf(out, ">> period %d: rule %d on switch %d repaired\n", p, active.RuleID, active.Switch)
				active = nil
			}
			if env.killAt > 0 && p == env.killAt {
				client, ok := env.harness.Clients[env.killTarget]
				if !ok {
					return fmt.Errorf("no control channel to kill on switch %d", env.killTarget)
				}
				_ = client.Close()
				fmt.Fprintf(out, ">> period %d: switch %d control channel died\n", p, env.killTarget)
			}
			if env.resetAt > 0 && p == env.resetAt {
				tbl, err := env.network.Table(env.resetTarget)
				if err != nil {
					return err
				}
				tbl.ResetCounters()
				fmt.Fprintf(out, ">> period %d: switch %d rebooted (counters zeroed)\n", p, env.resetTarget)
			}
			if env.churnEvery > 0 && p%env.churnEvery == 0 {
				// Half the period's traffic first, so the update lands
				// mid-window: this period's window sees counters that mix
				// two rule generations — exactly the straddling case the
				// epoch-tagged windows reconcile.
				if _, err := env.network.Run(env.rng, env.tm); err != nil {
					return err
				}
				events, err := injectChurn(env.rng, env.ctrl, env.layout, env.t, env.harness.Clients)
				if err != nil {
					return err
				}
				// The switches were already patched via FlowMods above, so
				// only the detection baseline needs to absorb the events.
				u, err := env.sys.ObserveUpdate(events)
				if err != nil {
					return err
				}
				asm.SetEpoch(env.sys.Epoch())
				fmt.Fprintf(out, ">> period %d: rule churn epoch %d (%d events): retraced %d sources, slices reused/updated/refactored %d/%d/%d in %s\n",
					p, u.Epoch, len(u.Events), u.Retraced, u.SlicesReused, u.SlicesUpdated, u.SlicesRefactored, u.Elapsed.Round(time.Microsecond))
			}
			if _, err := env.network.Run(env.rng, env.tm); err != nil {
				return err
			}
			snap, err := pumpRound(ctx, env.robust, asm)
			if err != nil {
				return err
			}
			if len(snap.Reinstated) > 0 {
				fmt.Fprintf(out, ">> period %d: switches %v reinstated from quarantine\n", p, snap.Reinstated)
			}
			if m := env.robust.Metrics(); m.Quarantines > quarantines {
				fmt.Fprintf(out, ">> period %d: quarantined switches: %v\n", p, env.robust.Quarantined())
				quarantines = m.Quarantines
			}
			if env.interval > 0 {
				time.Sleep(env.interval)
			}
		}
		return nil
	}()
	interrupted := pumpErr != nil && ctx.Err() != nil

	// Graceful drain: flush the pending window, close the stream, and
	// let Serve work through everything still queued. The watchdog
	// cancels Serve if the drain outlives the shutdown deadline.
	watchdog := time.AfterFunc(shutdownDeadline, cancelServe)
	asm.Close()
	c := <-done
	watchdog.Stop()

	fmt.Fprint(out, experiment.FormatTable(
		[]string{"period", "attack", "AI(baseline)", "verdict", "alarm", "AI(sliced)", "suspects"}, c.rows))
	st := asm.Stats()
	m := env.robust.Metrics()
	fmt.Fprintf(out, "collection: periods=%d requests=%d retries=%d timeouts=%d failures=%d quarantines=%d reinstatements=%d resets=%d\n",
		m.Periods, m.Requests, m.Retries, m.Timeouts, m.Failures, m.Quarantines, m.Reinstatements, st.Resets)
	fmt.Fprintf(out, "stream: windows=%d pushes=%d updates=%d coalesced=%d droppedUpdates=%d droppedWindows=%d p99=%s\n",
		st.Windows, st.Pushes, st.Updates, st.Coalesced, st.DroppedUpdates, st.DroppedWindows,
		percentileDur(c.latencies, 0.99).Round(time.Microsecond))
	if sampler != nil {
		ss := sampler.Stats()
		fmt.Fprintf(out, "sampler: switches=%d backedOff=%d maxInterval=%d tightened=%d drifts=%d\n",
			ss.Switches, ss.BackedOff, ss.MaxInterval, ss.Tightened, ss.Drifts)
	}

	// Final /status snapshot, then stop the servers under a deadline.
	if env.statusSrv != nil {
		sv := streamStatus(st, sampler, st.Windows, 0, percentileDur(c.latencies, 0.99))
		env.statusSrv.Update(status{
			Period:     env.periods,
			Cluster:    clusterStatus(env.coord),
			Collection: collectionStatus(env.robust, st),
			Churn:      churnStatus(env.sys.ChurnStats()),
			Stream:     &sv,
			Runtime:    runtimeStatus(env.runtimeSampler, env.runtimeTel),
			Recent:     env.sys.RecentRuns(),
		})
	}
	if env.metricsSrv != nil {
		env.metricsSrv.Shutdown(shutdownDeadline)
	}
	if interrupted {
		fmt.Fprintf(out, "interrupted: drained %d windows, shut down cleanly\n", st.Windows)
		return nil
	}
	return pumpErr
}

// reportWindow prints what one detected window says beyond its table
// row: the counter resets it found, how much of the network a missing
// switch hid from it, the rule rows a straddled update masked, and the
// localization verdict. f is the current baseline FCM.
func reportWindow(out io.Writer, f *foces.FCM, period int, sr foces.StreamReport) {
	rep := sr.Report
	if len(sr.Resets) > 0 {
		fmt.Fprintf(out, ">> period %d: counter reset detected on switches %v; their window is treated as missing\n", period, sr.Resets)
	}
	if loc := rep.Localization; loc != nil {
		if top, ok := loc.TopCulprit(); ok {
			fmt.Fprintf(out, ">> period %d: localization accused rule %d on switch %d (confidence %.2f, %d/%d probes)\n",
				period, top.RuleID, top.Switch, top.Confidence, loc.ProbesUsed, loc.ProbeBudget)
		} else if loc.Error != "" {
			fmt.Fprintf(out, ">> period %d: localization failed: %s\n", period, loc.Error)
		}
	}
	switch {
	case len(rep.Missing) > 0:
		hidden := 0
		for _, sw := range rep.Missing {
			hidden += len(f.RulesAt(sw))
		}
		fmt.Fprintf(out, ">> period %d: %d switches missing, detecting on %d of %d rules\n",
			period, len(rep.Missing), f.NumRules()-hidden, f.NumRules())
	case sr.Straddled > 0:
		// One or more switch windows span a rule update: their counters
		// mix two rule generations. Run masked the rows changed since
		// the oldest straddled baseline epoch instead of reading the
		// mixture as a forwarding anomaly.
		fmt.Fprintf(out, ">> period %d: %d switch windows straddle rule updates since epoch %d; masking %d rule rows\n",
			period, sr.Straddled, rep.Epoch-rep.EpochLag, len(rep.MaskedRows))
	}
}

// pumpRound runs one fetch round: ask the assembler which switches its
// open window is waiting on, fetch their cumulative snapshots through
// the full fault machinery, and feed results back — failed switches
// lose their baseline (Forget) and are marked missing, skipped
// (quarantined) switches are marked missing, everything else is pushed.
func pumpRound(ctx context.Context, rc *collector.RobustCollector, asm *collector.WindowAssembler) (collector.SnapshotResult, error) {
	due := asm.Due()
	snap, err := rc.PollSnapshots(ctx, due)
	if err != nil {
		return snap, err
	}
	for _, sw := range snap.Failed {
		asm.Forget(sw)
	}
	for _, sw := range due {
		if counters, ok := snap.Snapshots[sw]; ok {
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
				return snap, err
			}
		}
	}
	asm.MarkMissing(snap.Failed...)
	asm.MarkMissing(snap.Skipped...)
	return snap, nil
}

// clusterStatus snapshots the coordinator for /status (nil outside the
// coordinator role).
func clusterStatus(coord *cluster.Coordinator) *cluster.Status {
	if coord == nil {
		return nil
	}
	cs := coord.Status()
	return &cs
}

// repResult picks the full-FCM result out of a report (zero when the
// full engine did not run).
func repResult(rep foces.Report) core.Result {
	if rep.Full != nil {
		return *rep.Full
	}
	return core.Result{}
}

// formatSuspects renders the first few localization suspects.
func formatSuspects(suspects []topo.SwitchID) string {
	s := ""
	for i, sw := range suspects {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(sw)
		if i == 4 {
			s += ",..."
			break
		}
	}
	return s
}

// percentileDur returns the q-quantile of the samples (0 when empty).
func percentileDur(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
