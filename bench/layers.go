package main

import (
	"fmt"
	"strings"
	"time"
)

// layerReport assembles the per-layer metrics of a traced run. Timings from
// spans are per-cycle means at reference speed (each span is scaled by the
// calibration factor of the cycle it belongs to); counts come from the
// harness's counting filesystem and listeners and from the workload itself.
type layerReport struct {
	M map[string]float64

	Cycles, Rounds       float64 // traced cycles only (span metrics)
	AllCycles, AllRounds float64 // every measured cycle (counter metrics)

	FS     *benchFS
	FSBase map[string]fsCounters // per artifact, at the start of the measured phase
	Smoke  bool                  // one short round per probe: the numbers are not read

	// Observed counts over every measured cycle, for the budget.
	sessionRounds, fullRounds, entries float64

	cycleMs     float64 // mean traced cycle, timed part only, at reference speed
	transportMs float64 // wall time covered by round trips (parallel ones once)
	selfMs      map[string]float64
	totalMs     map[string]float64
}

func (l *layerReport) set(name string, v float64) { l.M[name] = v }

// shares records the check-level mix of the measured rounds.
func (l *layerReport) shares(session, full, forced int) {
	l.sessionRounds, l.fullRounds = float64(session), float64(full)
	l.set("verifier.session_share", ratio(float64(session), float64(session+full)))
	l.set("verifier.forced_full_share", ratio(float64(forced), float64(session+full)))
}

// harness fills the metrics that say how far to trust the run.
func (l *layerReport) harness(res *runResult, cal *calibrator, drift, steal float64, untraced, traced phase, setupRawMs []float64) {
	offCost, _, _, _ := untraced.sums()
	onCost, _, _, _ := traced.sums()
	offRate := ratio(float64(untraced.rounds), offCost)
	onRate := ratio(float64(traced.rounds), onCost)
	l.set("trace.overhead_share", 1-ratio(onRate, offRate))
	l.set("calib.pass_ms_p50", median(cal.passes))
	l.set("calib.drift", drift)
	l.set("env.steal_share", steal)
	l.set("fixture.s", res.FixtureS)

	_, _, wallMs, cpuMs := untraced.sums()
	l.set("raw.rounds_per_s", ratio(float64(untraced.rounds), wallMs/1000))
	l.set("raw.cycle_ms_p50", percentile(untraced.rawMs(), 50))
	l.set("raw.cycle_ms_p90", percentile(untraced.rawMs(), 90))
	l.set("raw.cpu_ms_per_kround", ratio(cpuMs, float64(untraced.rounds)/1000))
	l.set("raw.setup_s", median(setupRawMs)/1000)
}

// spanMetrics maps a per-layer metric to the span it is the per-cycle total of.
var spanMetrics = map[string]string{
	"verifier.poll_all_ms":     "verifier.poll_all",
	"verifier.export_dirty_ms": "verifier.export_dirty",
	"verifier.row_marshal_ms":  "verifier.row_marshal",
	"verifier.restore_ms":      "verifier.restore",
	"audit.open_ms":            "audit.open",
	"dsse.keyring_open_ms":     "dsse.keyring_open",
	"store.put_batch_ms":       "store.put_batch",
	"store.open_ms":            "store.open",
	"core.update_ms":           "core.update",
	"rollout.begin_ms":         "rollout.begin",
	"rollout.tick_ms":          "rollout.tick",
	"rollout.recover_ms":       "rollout.recover",
	"reconcile.apply_ms":       "reconcile.apply",
	"reconcile.tick_ms":        "reconcile.tick",
	"cluster.sweep_ms":         "cluster.sweep",
	"cluster.tick_ms":          "cluster.tick",
}

// spans turns the traced cycles' spans into per-layer timings.
func (l *layerReport) spans(tr *tracer, fx *fixture, transports []*tracingTransport, dials uint64) {
	all := tr.snapshot()
	tr.mu.Lock()
	factors := tr.factors
	tr.mu.Unlock()

	sums := aggregate(all, func(cycle int) (float64, bool) { f, ok := factors[cycle]; return f, ok })
	l.selfMs, l.totalMs = sums.Self, sums.Total
	for name := range l.totalMs {
		l.selfMs[name] /= l.Cycles
		l.totalMs[name] /= l.Cycles
	}
	l.transportMs = sums.Transport / l.Cycles
	l.cycleMs = l.totalMs[spanCycle]
	for metric, name := range spanMetrics {
		l.set(metric, l.totalMs[name])
	}
	l.set("verifier.poll_self_ms", l.selfMs["verifier.poll_all"])

	var rtts []float64
	var requests uint64
	for _, t := range transports {
		rtts = append(rtts, t.rtts.values()...)
		requests += t.requests.Load()
	}
	l.set("httppool.rtt_us_p50", percentile(rtts, 50))
	l.set("httppool.rtt_us_p90", percentile(rtts, 90))
	l.set("httppool.requests_per_round", ratio(float64(requests), l.Rounds))
	l.set("httppool.dials", float64(dials))
	l.set("agent.answer_us_p50", median(fx.Probe.answers.values()))
	l.set("agent.full_quote_share", ratio(float64(fx.Probe.full.Load()), float64(fx.Probe.requests.Load())))
}

// storage reads the per-artifact counters off the bench filesystem.
func (l *layerReport) storage(rowBytes int64, rows, checkpoints int) {
	delta := func(match func(string) bool) fsCounters {
		return l.FS.Matching(match).sub(sumCounters(l.FSBase, match))
	}
	audit := delta(func(a string) bool { return strings.HasSuffix(a, "audit.wal") })
	state := delta(func(a string) bool { return strings.HasSuffix(a, "state") })
	l.set("audit.bytes_per_round", ratio(float64(audit.WriteBytes), l.AllRounds))
	l.set("audit.fsyncs_per_cycle", ratio(float64(audit.Syncs), l.AllCycles))
	l.set("store.write_bytes_per_round", ratio(float64(state.WriteBytes), l.AllRounds))
	l.set("store.fsyncs_per_cycle", ratio(float64(state.Syncs), l.AllCycles))
	l.set("verifier.row_bytes", ratio(float64(rowBytes), float64(rows)))
	l.set("verifier.rows_per_cycle", ratio(float64(rows), l.AllCycles))
	l.set("dsse.checkpoints_per_cycle", ratio(float64(checkpoints), l.AllCycles))
}

func (l *layerReport) custody(verifyMs []float64, records int) {
	l.set("custody.verify_ms", median(verifyMs))
	l.set("custody.records", float64(records))
}

// probeRounds is how many timed rounds of a probe are taken; the median
// round is reported.
const probeRounds = 5

// probes calls each layer's public functions directly on inputs captured
// from the fixture and reports calibrated time per operation (or per unit).
func (l *layerReport) probes(cal *calibrator, in *probeInputs, fsys FS, dir string, auditImage []byte, verifyImage func([]byte) (int, error)) error {
	ps, done, err := in.probes(fsys, dir)
	if err != nil {
		return err
	}
	defer done()
	rounds := probeRounds
	if l.Smoke {
		rounds = 1
	}
	for _, p := range ps {
		iters := p.Iters
		if iters == 0 {
			iters = probeIters(p.Op, l.Smoke)
		}
		var regs []region
		for r := 0; r < rounds; r++ {
			reg, err := cal.timed(2, func() error {
				for i := 0; i < iters; i++ {
					if err := p.Op(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.Name, err)
			}
			regs = append(regs, reg)
		}
		smoothCalibration(regs)
		var perOp []float64
		for _, reg := range regs {
			perOp = append(perOp, reg.Cost()/float64(iters))
		}
		v := median(perOp) // ms per op
		if p.Units != nil {
			v = ratio(v, p.Units())
		}
		if strings.HasSuffix(p.Name, "_us") {
			l.set(p.Name, v*1e3)
		} else {
			l.set(p.Name, v*1e6)
		}
	}
	// audit.verify: the offline walk over the run's own journal.
	var regs []region
	records := 0
	for r := 0; r < min(rounds, 3); r++ {
		reg, err := cal.timed(2, func() (err error) { records, err = verifyImage(auditImage); return err })
		if err != nil {
			return err
		}
		regs = append(regs, reg)
	}
	smoothCalibration(regs)
	var per []float64
	for _, reg := range regs {
		per = append(per, reg.Cost()/float64(records)*1e6)
	}
	l.set("audit.verify_ns_per_record", median(per))
	return nil
}

// probeIters sizes a probe's loop so one timed round lasts about 20 ms
// (2 ms in a smoke run).
func probeIters(op func() error, smoke bool) int {
	start := time.Now()
	n := 0
	for time.Since(start) < 2*time.Millisecond {
		if err := op(); err != nil {
			return 1
		}
		n++
	}
	if smoke {
		return max(1, n)
	}
	return n * 10
}

// budget holds the layer numbers against the cycle they are parts of.
//
// budget.unexplained_ms is the root span's self time: the part of the mean
// traced cycle that no layer span covers. By construction the layer spans'
// self times (parallel round trips counted once, as their union) plus this
// remainder are the cycle.
//
// budget.explained_share models the cycle from the outside in: the self
// time of every span except the sweep's interior, plus, for that interior,
// Σ(probe unit cost × observed count). The probes are CPU costs summed over
// both ends of the wire (agents share the process) while the cycle is wall
// time on two CPUs, so the share can pass 1; how far it is from 1 is how far
// the micro-layer rows are from accounting for the sweep.
func (l *layerReport) budget() {
	l.set("budget.unexplained_ms", l.selfMs[spanCycle])
	outside := 0.0
	for name, self := range l.selfMs {
		switch name {
		case spanCycle, "verifier.poll_all", "cluster.sweep", spanRoundTrip:
		default:
			outside += self
		}
	}
	perCycle := func(count float64) float64 { return ratio(count, l.AllCycles) }
	ns := func(metric string) float64 { return l.M[metric] / 1e6 } // ns -> ms
	modelled := perCycle(l.sessionRounds)*(ns("api.session_frame_ns")+ns("session.mac_ns")) +
		perCycle(l.fullRounds)*(ns("api.full_frame_ns")+ns("tpm.quote_ns")+ns("tpm.verify_quote_ns")) +
		perCycle(l.entries)*(ns("ima.replay_ns_per_entry")+ns("policy.check_ns")) +
		perCycle(l.sessionRounds+l.fullRounds)*ns("audit.append_batch_ns_per_record") +
		l.M["dsse.checkpoints_per_cycle"]*ns("dsse.sign_ns")
	l.set("budget.explained_share", ratio(outside+modelled, l.cycleMs))
}

// selfSum is Σ self times of every layer span, with the sweeps' parallel
// round trips counted once, as their union — the left side of the budget
// identity selfSum + budget.unexplained_ms = mean cycle.
func (l *layerReport) selfSum() float64 {
	sum := l.transportMs
	for name, self := range l.selfMs {
		if name != spanCycle && name != spanRoundTrip {
			sum += self
		}
	}
	return sum
}
