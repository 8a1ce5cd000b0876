package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// cycleOut is what one cycle reports back to the harness.
type cycleOut struct {
	Rounds int // agents attested (all sweeps of the cycle)
	Ops    int // operations attempted: rounds, lifecycle ops, revocations, restarts
}

// workload is one of the four closed-loop scenarios. The harness owns time:
// it calls Open once per set-up, Cycle back to back from a single driver
// goroutine, and calibrates after every call. A workload returns an error
// for any output that is not exactly what it expected; the run then counts
// that operation as failed and exits non-zero.
type workload interface {
	// Open builds the system under test in dir over the fixture — opens
	// the durable components, generates the policy — and is the first timed
	// region of set-up.
	Open(ctx context.Context) error
	// Cycle runs cycle i (0-based, warm-up included) and checks its outputs.
	Cycle(ctx context.Context, i int) (cycleOut, error)
	// Finish checks the end state: the state store holds exactly the live
	// fleet.
	Finish(ctx context.Context) error
	// Verify walks the run's chain-of-custody artifacts and returns the
	// records and sealed audit checkpoints covered; a broken chain is an
	// error.
	Verify(ctx context.Context) (records, checkpoints int, err error)
	// Layers adds the workload's own counters to a traced run's report.
	Layers(l *layerReport)
	// Trace hands a traced run what the harness-side layer metrics need.
	Trace() traceSource
	// ExtraNet is the traffic on the harness listeners the workload owns
	// beyond the agents' (cluster RPC, webhook receiver).
	ExtraNet() netCounters
	Close()
}

// traceSource is what a workload exposes to a traced run's report.
type traceSource struct {
	Policy     *Policy
	Transports []*tracingTransport
	RowBytes   int64 // bytes of state rows marshalled by the persist step
	Rows       int   // rows it journaled
	AuditPath  string
	Keyring    *Keyring
}

// workloadDef fixes a workload's shape. Cycle counts are fixed work, not
// fixed time: inputs, journal growth and heap are identical on every commit,
// so a faster commit finishes sooner instead of doing more. --seconds scales
// the measured count by cyclesPerSecond, the rate on the reference box.
type workloadDef struct {
	Name   string
	Why    string
	Hosts  int
	Agents int
	Warmup int // warm-up cycles per set-up
	New    func(env *benchEnv) (workload, error)
}

const (
	// Every workload is sized for cycles of about 100 ms, so one rate and
	// one calibration length serve all four: 8 passes (≈10 ms) after every
	// cycle keep calibration under a tenth of a run.
	cyclesPerSecond = 8
	calibPasses     = 8
	minCycles       = 100 // a p90 needs ten samples beyond it
	smokeCycles     = 3
	setupRuns       = 3 // set-ups per run; setup_s is their median
	verifyRuns      = 9
	bootExecs       = 200 // base-release executables every machine runs at boot

	// A run is marked suspect, not silently reported, when the machine was
	// visibly unsteady under it.
	suspectDrift = 1.5
	suspectSteal = 0.10
	// A traced run alternates blocks of untraced and traced cycles in the
	// order U T T U, so a workload whose cycles grow dearer as it goes
	// (journals and policies grow) puts as much of the growth in one kind
	// of block as in the other. A block holds one of fleet_churn's tampers.
	traceBlock = 4
)

// cycles is the measured cycle count for a run of the given length.
func (d workloadDef) cycles(seconds int, smoke bool) int {
	if smoke {
		return smokeCycles
	}
	return max(cyclesPerSecond*seconds, minCycles)
}

func (d workloadDef) warmup(smoke bool) int {
	if smoke {
		return stagger // every agent must still be enrolled
	}
	return d.Warmup
}

// stagger is the number of groups a fleet is enrolled in, one per warm-up
// cycle: with -session-every 16, enrolling a fleet at once would put every
// full quote in the same 16th sweep (p95 2.4× the median); a real fleet's
// are spread, so the benchmark's are too.
const stagger = flagSessionEvery

// benchEnv is what a workload is built from.
type benchEnv struct {
	Def    workloadDef
	Seed   int64
	Fx     *fixture
	FS     *benchFS
	Dir    string // the directory this set-up's stack lives in, on FS
	Tracer *tracer
	Cal    *calibrator // for untimed stretches inside a cycle
	Warmup int         // warm-up cycles per set-up
	Cycles int         // measured cycles
	Fault  string
}

// untimed runs simulated upstream or hardware activity inside a cycle: its
// time is taken out of the timed region, and a traced run records it as a
// span so the layer budget leaves it out too.
func (e *benchEnv) untimed(ctx context.Context, fn func() error) error {
	_, end := e.Tracer.begin(ctx, spanUntimed)
	defer end()
	return e.Cal.untimed(fn)
}

// runConfig is one invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Scale    string
	Smoke    bool
	// Fault names a defect for the harness to plant in its own fixture, so a
	// test can show that a failed check fails the run. Not a flag.
	Fault string
}

// runResult is everything one run measured.
type runResult struct {
	Def      workloadDef
	Config   runConfig
	Cycles   int
	Warmup   int
	Ops      int
	Failed   int
	Failure  string
	E2E      map[string]float64
	Raw      map[string]float64 // the timing metrics uncalibrated (never gated)
	Layers   map[string]float64
	Env      envBlock
	Suspect  []string
	Samples  int
	FixtureS float64
}

// checkSweep holds a sweep to "exactly the expected agents attested, no
// unexpected verdicts, nothing skipped, audit batch durable".
func checkSweep(st PollStats, wantAttested, wantFailed int) error {
	if st.Attested != wantAttested || st.Failed != wantFailed || st.Degraded != 0 ||
		st.Quarantined != 0 || st.Errors != 0 || st.Removed != 0 || st.AuditFlushErrs != 0 {
		return fmt.Errorf("sweep attested %d (want %d), failed %d (want %d), degraded %d, quarantined %d, errors %d, removed %d, audit flush errors %d",
			st.Attested, wantAttested, st.Failed, wantFailed, st.Degraded, st.Quarantined,
			st.Errors, st.Removed, st.AuditFlushErrs)
	}
	return nil
}

// phase accumulates the timed regions and counter deltas of a run of cycles.
type phase struct {
	regions []region
	rounds  int
}

func (p *phase) costs() []float64 {
	out := make([]float64, len(p.regions))
	for i, r := range p.regions {
		out[i] = r.Cost()
	}
	return out
}

func (p *phase) rawMs() []float64 {
	out := make([]float64, len(p.regions))
	for i, r := range p.regions {
		out[i] = r.WallMs
	}
	return out
}

func (p *phase) sums() (cost, cpuCost, wallMs, cpuMs float64) {
	for _, r := range p.regions {
		cost += r.Cost()
		cpuCost += r.CPUCost()
		wallMs += r.WallMs
		cpuMs += r.CPUMs
	}
	return
}

// run executes one workload once and returns its metrics.
func run(ctx context.Context, cfg runConfig) (res *runResult, err error) {
	def, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res = &runResult{Def: def, Config: cfg, E2E: map[string]float64{}, Raw: map[string]float64{}, Layers: map[string]float64{}}
	res.Cycles = def.cycles(cfg.Seconds, cfg.Smoke)
	res.Warmup = def.warmup(cfg.Smoke)
	if cfg.Trace && !cfg.Smoke {
		// A traced run alternates traced and untraced blocks over half the
		// cycles; its timings are only ever compared with each other.
		res.Cycles = max(res.Cycles/2/(4*traceBlock), 1) * 4 * traceBlock
	}
	steal0 := readSteal()

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	cal := newCalibrator()
	cal.measure(20) // page in the kernel's code and data
	cal.passes = cal.passes[:0]
	calibAlloc := cal.allocBytesPerPass()

	// fail records the operation that did not produce its expected output.
	fail := func(what string, e error) (*runResult, error) {
		res.Failed++
		res.Ops++
		res.Failure = fmt.Sprintf("%s: %v", what, e)
		return res, nil
	}

	// --- set-up, several times; the last one is kept and measured.
	setups := setupRuns
	if cfg.Smoke {
		setups = 1
	}
	var (
		w          workload
		fx         *fixture
		fsys       *benchFS
		setupCost  []float64
		setupRawMs []float64
		cycleNo    int
	)
	teardown := func() {
		if w != nil {
			w.Close()
			w = nil
		}
		if fx != nil {
			fx.Close()
			fx = nil
		}
		if fsys != nil {
			fsys.Close()
			fsys = nil
		}
	}
	defer teardown()
	for s := 0; s < setups; s++ {
		// Every set-up starts from its own freshly provisioned fixture, so
		// the repeats do identical work (the fixture itself is not timed).
		teardown()
		fixStart := time.Now()
		fx, err = newFixture(cfg.Seed, cfg.Scale, def.Hosts, bootExecs, tr)
		if err != nil {
			return nil, fmt.Errorf("building fixture: %w", err)
		}
		res.FixtureS = time.Since(fixStart).Seconds()
		dir := fmt.Sprintf("/bench/setup%d", s)
		fsys = newBenchFS(dir)
		env := &benchEnv{Def: def, Seed: cfg.Seed, Fx: fx, FS: fsys, Dir: dir, Tracer: tr, Cal: cal,
			Warmup: res.Warmup, Cycles: res.Cycles, Fault: cfg.Fault}
		if w, err = def.New(env); err != nil {
			return nil, fmt.Errorf("building workload: %w", err)
		}
		var sp phase
		r, err := cal.timed(calibPasses, func() error { return w.Open(ctx) })
		if err != nil {
			return fail("set-up open", err)
		}
		sp.regions = append(sp.regions, r)
		for cycleNo = 0; cycleNo < res.Warmup; cycleNo++ {
			var out cycleOut
			r, err := cal.timed(calibPasses, func() (err error) { out, err = w.Cycle(ctx, cycleNo); return err })
			res.Ops += out.Ops
			if err != nil {
				return fail(fmt.Sprintf("warm-up cycle %d", cycleNo), err)
			}
			sp.regions = append(sp.regions, r)
		}
		smoothCalibration(sp.regions)
		cost, _, wall, _ := sp.sums()
		setupCost = append(setupCost, cost/1000)
		setupRawMs = append(setupRawMs, wall)
	}

	// --- measured phase.
	var (
		untraced, traced phase
		measured         []region // every measured cycle, in time order
		measuredRounds   []int
		wasTraced        []bool
		fs0              = fsys.Total()
		fsBase           = fsys.Snapshot()
		net0             = fx.AgentNet.load()
		extraNet0        = w.ExtraNet()
		mem0, mem1       runtime.MemStats
		passes0          = len(cal.passes)
		checkpoints0     int
	)
	var src0 traceSource
	if cfg.Trace {
		if _, checkpoints0, err = w.Verify(ctx); err != nil {
			return fail("custody verification before the measured phase", err)
		}
		src0 = w.Trace()
	}
	runtime.ReadMemStats(&mem0)
	for i := 0; i < res.Cycles; i++ {
		block := i / traceBlock % 4
		tracing := cfg.Trace && (cfg.Smoke || block == 1 || block == 2)
		if tr != nil {
			tr.on.Store(tracing)
			tr.setCycle(cycleNo)
		}
		var out cycleOut
		cctx, end := tr.begin(ctx, spanCycle)
		r, err := cal.timed(calibPasses, func() (err error) {
			defer end()
			out, err = w.Cycle(cctx, cycleNo)
			return err
		})
		res.Ops += out.Ops
		if err != nil {
			return fail(fmt.Sprintf("cycle %d", cycleNo), err)
		}
		measured = append(measured, r)
		measuredRounds = append(measuredRounds, out.Rounds)
		wasTraced = append(wasTraced, tracing)
		cycleNo++
	}
	if tr != nil {
		tr.on.Store(false)
	}
	smoothCalibration(measured)
	for i, r := range measured {
		p := &untraced
		if wasTraced[i] {
			p = &traced
			tr.factor(cycleNo-len(measured)+i, r.factor())
		}
		p.regions = append(p.regions, r)
		p.rounds += measuredRounds[i]
	}
	runtime.ReadMemStats(&mem1)
	fsd := fsys.Total().sub(fs0)
	netd := fx.AgentNet.load().sub(net0)
	xnet := w.ExtraNet().sub(extraNet0)
	measuredPasses := len(cal.passes) - passes0

	runtime.GC()
	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)

	res.Ops++
	if err := w.Finish(ctx); err != nil {
		return fail("end-state check", err)
	}

	// --- chain-of-custody verification, interleaved with calibration.
	var verifyRate, verifyMs []float64
	records, checkpoints := 0, 0
	nVerify := verifyRuns
	if cfg.Smoke {
		nVerify = 1
	}
	res.Ops++
	var verifies []region
	for i := 0; i < nVerify; i++ {
		r, err := cal.timed(calibPasses, func() (err error) { records, checkpoints, err = w.Verify(ctx); return err })
		if err != nil {
			return fail("custody verification", err)
		}
		verifies = append(verifies, r)
	}
	smoothCalibration(verifies)
	for _, r := range verifies {
		verifyRate = append(verifyRate, float64(records)/r.Cost()) // records per ms = krec/s
		verifyMs = append(verifyMs, r.Cost())
	}
	// --- metrics.
	// Drift is taken over the smoothed pass times the cycles were divided
	// by: single calibrations also flip between the box's two speed plateaus.
	var speeds []float64
	for _, r := range measured {
		speeds = append(speeds, r.SpeedMs)
	}
	drift := ratio(percentile(speeds, 90), percentile(speeds, 10))
	steal := stealShare(steal0, readSteal())
	if drift > suspectDrift {
		res.Suspect = append(res.Suspect, fmt.Sprintf("calib.drift %.2f > %.1f", drift, suspectDrift))
	}
	if steal > suspectSteal {
		res.Suspect = append(res.Suspect, fmt.Sprintf("env.steal_share %.2f > %.2f", steal, suspectSteal))
	}
	res.Env = readEnv(cfg, res)
	res.Samples = len(untraced.regions) + len(traced.regions)
	rounds := float64(untraced.rounds + traced.rounds)
	cycles := float64(res.Samples)

	if !cfg.Trace {
		cost, cpuCost, wallMs, cpuMs := untraced.sums()
		res.Raw["setup_s"] = median(setupRawMs) / 1000
		res.Raw["rounds_per_s"] = ratio(rounds, wallMs/1000)
		res.Raw["cycle_ms_p50"] = percentile(untraced.rawMs(), 50)
		res.Raw["cycle_ms_p90"] = percentile(untraced.rawMs(), 90)
		res.Raw["cpu_ms_per_kround"] = ratio(cpuMs, rounds/1000)
		allocBytes := float64(mem1.TotalAlloc-mem0.TotalAlloc) - calibAlloc*float64(measuredPasses)
		e := res.E2E
		e["setup_s"] = median(setupCost)
		e["rounds_per_s"] = ratio(rounds, cost/1000)
		e["cycle_ms_p50"] = percentile(untraced.costs(), 50)
		e["cycle_ms_p90"] = percentile(untraced.costs(), 90)
		e["cpu_ms_per_kround"] = ratio(cpuCost, rounds/1000)
		e["wire_bytes_per_round"] = ratio(float64(netd.bytes()+xnet.bytes()), rounds)
		e["disk_bytes_per_round"] = ratio(float64(fsd.WriteBytes), rounds)
		e["fsyncs_per_cycle"] = ratio(float64(fsd.Syncs), cycles)
		e["alloc_kb_per_round"] = ratio(allocBytes/1024, rounds)
		e["heap_mb_end"] = float64(memEnd.HeapAlloc) / (1 << 20)
		e["verify_krec_per_s"] = median(verifyRate)
		return res, nil
	}

	src := w.Trace()
	l := &layerReport{M: res.Layers, Cycles: float64(len(traced.regions)), Rounds: float64(traced.rounds),
		AllCycles: cycles, AllRounds: rounds, FS: fsys, FSBase: fsBase, Smoke: cfg.Smoke}
	for _, m := range perLayer {
		l.M[m.Name] = 0
	}
	l.harness(res, cal, drift, steal, untraced, traced, setupRawMs)
	l.spans(tr, fx, src.Transports, netd.Conns)
	l.storage(src.RowBytes-src0.RowBytes, src.Rows-src0.Rows, checkpoints-checkpoints0)
	l.custody(verifyMs, records)
	w.Layers(l)
	in, err := newProbeInputs(fx, src.Policy)
	if err != nil {
		return nil, err
	}
	image, err := fsys.ReadFile(src.AuditPath)
	if err != nil {
		return nil, fmt.Errorf("reading the audit journal: %w", err)
	}
	res.Ops++
	if err := l.probes(cal, in, fsys, "/bench", image, func(data []byte) (int, error) {
		return verifyAuditBytes(data, src.Keyring)
	}); err != nil {
		return fail("layer probes", err)
	}
	l.budget()
	if cycle, sum := l.cycleMs, l.selfSum()+l.M["budget.unexplained_ms"]; cycle > 0 && (sum < 0.98*cycle || sum > 1.02*cycle) {
		return fail("layer budget", fmt.Errorf("self times + unexplained = %.3f ms, mean traced cycle = %.3f ms", sum, cycle))
	}
	return res, nil
}
