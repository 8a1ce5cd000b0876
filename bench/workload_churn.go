package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// churnRun is fleet_churn: a two-node cluster whose fleet is declared by a
// sliding spec, with a machine going bad every fourth cycle.
type churnRun struct {
	env     *benchEnv
	cs      *clusterStack
	rcv     *receiver
	pol     *Policy
	polJSON []byte

	plan    *churnPlan
	regular []specAgent // the sliding window, oldest first
	next    int         // next regular agent number
	victims []specAgent // one per victim host (empty before they are enrolled)
	victimN int         // victim IDs issued
	tampers int

	revMu    sync.Mutex           // the revocation handler runs on the sweeps' workers
	detected map[string]time.Time // revocation handler time, by agent
	revoked  []string             // every revocation raised, in order
	expected map[string]bool      // agents the harness tampered with

	// Traced-run observations.
	ticksToConverge []float64
	opsPerCycle     []float64
	lagRows         []float64
	detectToDeliver []float64
	outboxPerRevoc  []float64
	delivered0      int
	rpc0            netCounters
	sessionRounds   int
	fullRounds      int
	forced          int
}

func newChurn(env *benchEnv) (workload, error) { return &churnRun{env: env}, nil }

// faultLoseRevocation makes the webhook receiver acknowledge revocations
// without keeping them: the revocation "never arrives".
const faultLoseRevocation = "lose-revocation"

const (
	churnVictimHosts = 4
	churnTamperEvery = 4
)

// step is how many agents each cycle withdraws and enrols: a sixteenth of
// the fleet, so growing the fleet takes the `stagger` warm-up cycles.
func (c *churnRun) step() int { return c.env.Def.Agents / stagger }

// churnPlan is the input sequence of a fleet_churn run, drawn up front from
// the seed: which victim machine goes bad in which cycle. Cycles are
// numbered per set-up, so every set-up replays the same plan.
type churnPlan struct {
	TamperHost map[int]int // cycle -> victim host index
}

// newChurnPlan schedules a tamper every churnTamperEvery-th cycle after the
// fleet is fully enrolled, visiting the victim machines in a seed-shuffled
// round-robin so each has been rebooted and re-enrolled before its next turn.
func newChurnPlan(seed int64, cycles int) *churnPlan {
	order := []int{0, 1, 2, 3}
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := len(order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	p := &churnPlan{TamperHost: map[int]int{}}
	turn := 0
	for c := stagger; c < cycles; c++ {
		if c%churnTamperEvery == 0 {
			p.TamperHost[c] = order[turn%len(order)]
			turn++
		}
	}
	return p
}

// digest fingerprints the plan for the determinism test.
func (p *churnPlan) digest() string {
	cycles := make([]int, 0, len(p.TamperHost))
	for c := range p.TamperHost {
		cycles = append(cycles, c)
	}
	sort.Ints(cycles)
	var b strings.Builder
	for _, c := range cycles {
		fmt.Fprintf(&b, "%d:%d;", c, p.TamperHost[c])
	}
	return b.String()
}

func (c *churnRun) hosts() (regular, victims []*host) {
	hs := c.env.Fx.Hosts
	return hs[:len(hs)-churnVictimHosts], hs[len(hs)-churnVictimHosts:]
}

func (c *churnRun) Open(ctx context.Context) error {
	env := c.env
	_, pol, _, err := env.Fx.generatePolicy()
	if err != nil {
		return err
	}
	c.pol = pol
	if c.polJSON, err = json.Marshal(pol); err != nil {
		return err
	}
	c.plan = newChurnPlan(env.Seed, env.Warmup+env.Cycles)
	c.detected = map[string]time.Time{}
	c.expected = map[string]bool{}
	if c.rcv, err = newReceiver(); err != nil {
		return err
	}
	c.rcv.loseRevocations = env.Fault == faultLoseRevocation
	c.cs, err = openCluster(ctx, env.FS, env.Dir, c.rcv.URL(), env.Tracer,
		func(agentID, failureType, path string) {
			c.revMu.Lock()
			defer c.revMu.Unlock()
			c.detected[agentID] = time.Now()
			c.revoked = append(c.revoked, agentID)
		})
	if err != nil {
		return err
	}
	c.rcv.Trust(c.cs)
	return nil
}

func (c *churnRun) newRegular() specAgent {
	regular, _ := c.hosts()
	a := specAgent{ID: agentID("churn", c.next), Host: regular[c.next%len(regular)]}
	c.next++
	return a
}

func (c *churnRun) newVictim(hostIdx int) specAgent {
	_, victims := c.hosts()
	a := specAgent{ID: agentID("victm", c.victimN), Host: victims[hostIdx]}
	c.victimN++
	return a
}

// nextSpec moves the desired fleet one step: grow by churnStep while the
// fleet is being enrolled, then slide the window; a victim tampered with in
// the previous cycle is replaced by a fresh ID on its rebooted machine.
func (c *churnRun) nextSpec(cycle int) (spec *FleetSpec, ops int) {
	fleet := c.env.Def.Agents
	wantRegular := fleet - churnVictimHosts
	churnStep := c.step()
	if cycle < stagger {
		// Growth: step more agents a cycle, the regular window first, then
		// one agent on each victim machine.
		for k := 0; k < churnStep; k++ {
			if len(c.regular) < wantRegular {
				c.regular = append(c.regular, c.newRegular())
			} else {
				c.victims = append(c.victims, c.newVictim(len(c.victims)))
			}
			ops++
		}
	} else {
		c.regular = c.regular[churnStep:]
		for k := 0; k < churnStep; k++ {
			c.regular = append(c.regular, c.newRegular())
		}
		ops = 2 * churnStep
		if h, ok := c.plan.TamperHost[cycle-1]; ok {
			c.victims[h] = c.newVictim(h)
			ops += 2
		}
	}
	agents := append(append([]specAgent(nil), c.regular...), c.victims...)
	return churnSpec(agents, c.polJSON), ops
}

func (c *churnRun) Cycle(ctx context.Context, i int) (cycleOut, error) {
	var out cycleOut
	env := c.env
	tr := env.Tracer
	if i == env.Warmup {
		c.delivered0 = c.cs.Delivered()
		c.rpc0 = c.cs.RPCNet.load()
	}

	// The machine that went bad last cycle is withdrawn by this cycle's
	// spec; it reboots clean first (hardware, not the system under test).
	if h, ok := c.plan.TamperHost[i-1]; ok {
		_, victims := c.hosts()
		if err := env.untimed(ctx, func() error { return victims[h].Reboot(env.Fx.bootExecs) }); err != nil {
			return out, err
		}
	}
	spec, ops := c.nextSpec(i)
	opsBefore := c.cs.ReconcileOps()
	if err := c.cs.Apply(ctx, spec); err != nil {
		return out, fmt.Errorf("applying spec: %w", err)
	}
	ticks, err := c.cs.Converge(ctx)
	out.Ops += ops
	if err != nil {
		return out, err
	}
	if got := c.cs.ReconcileOps() - opsBefore; got != ops {
		return out, fmt.Errorf("reconciler executed %d lifecycle ops, spec change needed %d", got, ops)
	}
	fleet := len(spec.Agents)
	if owned := c.cs.Owned(); owned != fleet {
		return out, fmt.Errorf("cluster holds %d agents after convergence, spec has %d", owned, fleet)
	}

	wantFailed := 0
	var victim specAgent
	hostIdx, tamper := c.plan.TamperHost[i]
	if tamper {
		victim = c.victims[hostIdx]
		c.tampers++
		c.expected[victim.ID] = true
		if err := env.untimed(ctx, func() error { return victim.Host.Tamper(c.tampers) }); err != nil {
			return out, err
		}
		wantFailed = 1
	}
	var outbox0 fsCounters
	if tamper && tr.enabled() {
		if err := c.cs.Drain(10 * time.Second); err != nil {
			return out, err
		}
		outbox0 = env.FS.Matching(isOutbox)
	}

	st := c.cs.Sweep(ctx)
	out.Rounds += st.Attested
	out.Ops += fleet
	if i >= env.Warmup {
		c.sessionRounds += st.SessionRounds
		c.fullRounds += st.FullQuoteRounds
		c.forced += st.ForcedUpgrades
	}
	if err := checkSweep(st, fleet, wantFailed); err != nil {
		return out, err
	}
	if tr.enabled() {
		c.lagRows = append(c.lagRows, float64(c.cs.ReplicationLag()))
	}
	c.cs.Tick(ctx)

	// Every notification this cycle raised — reconciler lifecycle events and
	// the revocation, if any — is delivered and acknowledged inside it.
	if err := c.cs.Drain(10 * time.Second); err != nil {
		return out, err
	}
	if tamper {
		out.Ops++
		if err := c.checkRevocations(victim.ID); err != nil {
			return out, err
		}
		if tr.enabled() {
			c.outboxPerRevoc = append(c.outboxPerRevoc, float64(env.FS.Matching(isOutbox).sub(outbox0).WriteBytes))
		}
	} else if revoked := c.revocations(); len(revoked) != c.tampers {
		return out, fmt.Errorf("revocation for %s in a cycle nothing was tampered with", last(revoked))
	}
	if tr.enabled() {
		c.ticksToConverge = append(c.ticksToConverge, float64(ticks))
		c.opsPerCycle = append(c.opsPerCycle, float64(ops))
	}
	return out, nil
}

func isOutbox(artifact string) bool { return strings.HasSuffix(artifact, "outbox.wal") }

// checkRevocations holds the failure path to "exactly one sealed revocation
// for the tampered agent, journaled and received, and none for anyone else".
func (c *churnRun) checkRevocations(victimID string) error {
	if revoked := c.revocations(); len(revoked) != c.tampers || last(revoked) != victimID {
		return fmt.Errorf("verifier raised %d revocations (last for %q) after %d tampers, want one for %s",
			len(revoked), last(revoked), c.tampers, victimID)
	}
	got := c.rcv.Revocations()
	if len(got) != c.tampers {
		return fmt.Errorf("receiver holds %d revocations after %d tampers", len(got), c.tampers)
	}
	seen := 0
	for _, n := range got {
		if !c.expected[n.AgentID] {
			return fmt.Errorf("receiver holds a revocation for %s, which was never tampered with", n.AgentID)
		}
		if !n.Sealed {
			return fmt.Errorf("revocation for %s arrived unsealed", n.AgentID)
		}
		if n.AgentID == victimID {
			seen++
			if c.env.Tracer.enabled() {
				c.revMu.Lock()
				c.detectToDeliver = append(c.detectToDeliver, ms(n.At.Sub(c.detected[victimID])))
				c.revMu.Unlock()
			}
		}
	}
	if seen != 1 {
		return fmt.Errorf("receiver holds %d revocations for %s, want exactly 1", seen, victimID)
	}
	if _, rejected := c.rcv.Counts(); rejected != 0 {
		return fmt.Errorf("receiver rejected %d deliveries", rejected)
	}
	return nil
}

// revocations returns the agents the verifiers raised a revocation for.
func (c *churnRun) revocations() []string {
	c.revMu.Lock()
	defer c.revMu.Unlock()
	return append([]string(nil), c.revoked...)
}

func last(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[len(s)-1]
}

func (c *churnRun) Finish(ctx context.Context) error {
	c.cs.Tick(ctx)
	if lag := c.cs.ReplicationLag(); lag != 0 {
		return fmt.Errorf("%d agent rows not replicated to their standby", lag)
	}
	if n := c.cs.SealRejects(); n != 0 {
		return fmt.Errorf("%d replication frames rejected for a bad seal", n)
	}
	want := map[string]bool{}
	for _, a := range append(append([]specAgent(nil), c.regular...), c.victims...) {
		want[a.ID] = true
	}
	rows := 0
	for _, cn := range c.cs.Nodes {
		for k := range cn.State.All() {
			id, ok := strings.CutPrefix(k, "a/")
			if !ok {
				continue
			}
			rows++
			if !want[id] {
				return fmt.Errorf("node %s's state store holds a row for %s, which is not in the fleet", cn.ID, id)
			}
		}
	}
	if rows != len(want) {
		return fmt.Errorf("state stores hold %d agent rows, fleet has %d agents", rows, len(want))
	}
	return nil
}

func (c *churnRun) Verify(context.Context) (records, checkpoints int, err error) {
	for _, cn := range c.cs.Nodes {
		rep, n, err := cn.Verify()
		if err != nil {
			return 0, 0, err
		}
		if !rep.OK() {
			return 0, 0, fmt.Errorf("node %s: chain of custody broken: %s", cn.ID, rep.FirstBroken)
		}
		records += n
		checkpoints += auditCheckpoints(rep)
	}
	return records, checkpoints, nil
}

func (c *churnRun) Trace() traceSource {
	first := c.cs.Nodes[0]
	src := traceSource{Policy: c.pol, AuditPath: first.AuditPath(), Keyring: first.Keyring}
	for _, cn := range c.cs.Nodes {
		src.Transports = append(src.Transports, cn.Transport)
	}
	return src
}

// ExtraNet is the wire traffic beyond the agents': cluster RPC and webhook.
func (c *churnRun) ExtraNet() netCounters {
	a, b := c.cs.RPCNet.load(), c.rcv.Net.load()
	return netCounters{In: a.In + b.In, Out: a.Out + b.Out, Conns: a.Conns + b.Conns}
}

func (c *churnRun) Layers(l *layerReport) {
	l.set("policy.lines_end", float64(c.pol.Lines()))
	l.set("reconcile.ticks_to_converge", mean(c.ticksToConverge))
	l.set("reconcile.ops_per_cycle", mean(c.opsPerCycle))
	l.set("cluster.repl_lag_rows", mean(c.lagRows))
	l.set("webhook.detect_to_deliver_ms_p50", median(c.detectToDeliver))
	l.set("webhook.outbox_bytes_per_revocation", mean(c.outboxPerRevoc))
	l.set("webhook.delivered", float64(c.cs.Delivered()-c.delivered0))
	compactions := 0
	for _, cn := range c.cs.Nodes {
		compactions += cn.Compactions()
	}
	l.set("store.compactions", float64(compactions))
	l.set("cluster.repl_bytes_per_round", ratio(float64(c.cs.RPCNet.load().sub(c.rpc0).bytes()), l.AllRounds))
	l.shares(c.sessionRounds, c.fullRounds, c.forced)
}

func (c *churnRun) Close() {
	c.cs.Close()
	if c.rcv != nil {
		c.rcv.Close()
	}
}
