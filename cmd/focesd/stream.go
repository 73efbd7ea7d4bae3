package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"foces"
	"foces/internal/collector"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/experiment"
	"foces/internal/header"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// streamEnv carries the bootstrapped daemon state into the streaming
// mode: the same topology, control plane, system and telemetry the
// pull-poll loop uses, so the two modes differ only in how windows are
// formed and consumed.
type streamEnv struct {
	out        io.Writer
	t          *topo.Topology
	layout     *header.Layout
	ctrl       *controller.Controller
	network    *dataplane.Network
	harness    *collector.Harness
	robust     *collector.RobustCollector
	sys        *foces.System
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

// runStream is focesd's -stream mode: instead of the caller-driven
// for { Poll; Run } loop, a pump fetches raw cumulative snapshots
// (PollSnapshots) and pushes them into a WindowAssembler, whose
// completed windows flow through System.Serve continuously. SIGINT or
// SIGTERM triggers a graceful shutdown: the pump stops, the assembler
// flushes its pending window, Serve drains every remaining window, a
// final /status snapshot is published, and the metrics server stops
// under a deadline.
func runStream(env streamEnv) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

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

	// Serve drains independently of the pump's context so a shutdown
	// can flush queued windows; the watchdog below bounds the drain.
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	reports, err := env.sys.Serve(serveCtx, foces.StreamConfig{
		Windows:   asm.Windows(),
		Localize:  env.localize,
		Sampler:   sampler,
		Telemetry: streamTel,
	})
	if err != nil {
		return err
	}

	// Consumer: one goroutine turns StreamReports into table rows,
	// monitor feeds, latency samples and /status updates.
	type consumed struct {
		rows      [][]string
		latencies []time.Duration
		anomalies int
		errs      int
	}
	done := make(chan consumed, 1)
	go func() {
		var c consumed
		for sr := range reports {
			if sr.Err != nil {
				c.errs++
				fmt.Fprintf(env.out, ">> window %d: detection error: %v\n", sr.Window, sr.Err)
				continue
			}
			rep := sr.Report
			// Window 1 is the priming round (skipped by Serve); window
			// seq p+1 carries period p's traffic.
			period := int(sr.Window) - 1
			if sr.Latency > 0 {
				c.latencies = append(c.latencies, sr.Latency)
			}
			res := repResult(rep)
			if res.Anomalous {
				c.anomalies++
			}
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
					Index:            clampIndex(res.Index),
					Anomalous:        res.Anomalous,
					Alarm:            mv.Alert,
					SlicedIndex:      clampIndex(slicedIdx),
					Suspects:         suspects,
					Localization:     rep.Localization,
					MissingSwitches:  len(rep.Missing),
					StraddledWindows: 0,
					Collection:       collectionStatus(env.robust, collector.PollResult{}),
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
	// all-missing and skipped by Serve), then one round per period with
	// the same fault/attack/churn schedule as the pull-poll loop.
	var active *dataplane.Attack
	pumpErr := func() error {
		if err := pumpRound(ctx, env.robust, asm); err != nil {
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
				fmt.Fprintf(env.out, ">> period %d: compromising switch %d (rule %d -> %v)\n",
					p, atk.Switch, atk.RuleID, atk.NewAction)
			}
			if active != nil && p == env.repairAt {
				if err := active.Revert(env.network); err != nil {
					return err
				}
				fmt.Fprintf(env.out, ">> period %d: rule %d on switch %d repaired\n", p, active.RuleID, active.Switch)
				active = nil
			}
			if env.killAt > 0 && p == env.killAt {
				client, ok := env.harness.Clients[env.killTarget]
				if !ok {
					return fmt.Errorf("no control channel to kill on switch %d", env.killTarget)
				}
				_ = client.Close()
				fmt.Fprintf(env.out, ">> period %d: switch %d control channel died\n", p, env.killTarget)
			}
			if env.resetAt > 0 && p == env.resetAt {
				tbl, err := env.network.Table(env.resetTarget)
				if err != nil {
					return err
				}
				tbl.ResetCounters()
				fmt.Fprintf(env.out, ">> period %d: switch %d rebooted (counters zeroed)\n", p, env.resetTarget)
			}
			if env.churnEvery > 0 && p%env.churnEvery == 0 {
				// Half the period's traffic first, so the update lands
				// mid-window and this period's streamed window straddles
				// the epoch — reconciled exactly like a polled one.
				if _, err := env.network.Run(env.rng, env.tm); err != nil {
					return err
				}
				events, err := injectChurn(env.rng, env.ctrl, env.layout, env.t, env.harness.Clients)
				if err != nil {
					return err
				}
				u, err := env.sys.ObserveUpdate(events)
				if err != nil {
					return err
				}
				asm.SetEpoch(env.sys.Epoch())
				fmt.Fprintf(env.out, ">> period %d: rule churn epoch %d (%d events)\n", p, u.Epoch, len(u.Events))
			}
			if _, err := env.network.Run(env.rng, env.tm); err != nil {
				return err
			}
			if err := pumpRound(ctx, env.robust, asm); err != nil {
				return err
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

	fmt.Fprint(env.out, experiment.FormatTable(
		[]string{"period", "attack", "AI(baseline)", "verdict", "alarm", "AI(sliced)", "suspects"}, c.rows))
	st := asm.Stats()
	m := env.robust.Metrics()
	fmt.Fprintf(env.out, "collection: periods=%d requests=%d retries=%d timeouts=%d failures=%d quarantines=%d reinstatements=%d\n",
		m.Periods, m.Requests, m.Retries, m.Timeouts, m.Failures, m.Quarantines, m.Reinstatements)
	fmt.Fprintf(env.out, "stream: windows=%d pushes=%d updates=%d coalesced=%d droppedUpdates=%d droppedWindows=%d p99=%s\n",
		st.Windows, st.Pushes, st.Updates, st.Coalesced, st.DroppedUpdates, st.DroppedWindows,
		percentileDur(c.latencies, 0.99).Round(time.Microsecond))
	if sampler != nil {
		ss := sampler.Stats()
		fmt.Fprintf(env.out, "sampler: switches=%d backedOff=%d maxInterval=%d tightened=%d drifts=%d\n",
			ss.Switches, ss.BackedOff, ss.MaxInterval, ss.Tightened, ss.Drifts)
	}

	// Final /status snapshot, then stop the servers under a deadline.
	if env.statusSrv != nil {
		sv := streamStatus(st, sampler, st.Windows, 0, percentileDur(c.latencies, 0.99))
		env.statusSrv.Update(status{
			Period:     env.periods,
			Collection: collectionStatus(env.robust, collector.PollResult{}),
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
		fmt.Fprintf(env.out, "interrupted: drained %d windows, shut down cleanly\n", st.Windows)
		return nil
	}
	return pumpErr
}

// pumpRound runs one streaming fetch round: ask the assembler which
// switches its open window is waiting on, fetch their cumulative
// snapshots through the full fault machinery, and feed results back —
// failed switches lose their baseline (Forget) and are marked missing,
// skipped (quarantined) switches are marked missing, everything else
// is pushed.
func pumpRound(ctx context.Context, rc *collector.RobustCollector, asm *collector.WindowAssembler) error {
	due := asm.Due()
	snap, err := rc.PollSnapshots(ctx, due)
	if err != nil {
		return err
	}
	for _, sw := range snap.Failed {
		asm.Forget(sw)
	}
	for _, sw := range due {
		if counters, ok := snap.Snapshots[sw]; ok {
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
				return err
			}
		}
	}
	asm.MarkMissing(snap.Failed...)
	asm.MarkMissing(snap.Skipped...)
	return nil
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
