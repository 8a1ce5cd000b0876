package main

import (
	"context"
	"fmt"
)

// updateRun is update_day: each cycle is one day of the paper's §III-C
// loop, with the policy pushed through the staged rollout.
type updateRun struct {
	singleNode
	gen    *Generator
	extras *Policy
	days   *dayStream
	probe  *mirrorSyncProbe // traced runs only

	// Traced-run observations.
	sweepsToPromote []float64
	entriesAdded    []float64
	mirrorSyncUs    []float64
}

// newUpdate draws the run's update stream: choosing its sub-seed is input
// generation, so it happens here, before the timed set-up.
func newUpdate(env *benchEnv) (workload, error) {
	days, err := env.Fx.DayStream(env.Warmup + env.Cycles)
	if err != nil {
		return nil, err
	}
	return &updateRun{singleNode: singleNode{env: env}, days: days}, nil
}

// execPerPkg is how many freshly updated executables of each package every
// machine runs after installing it.
const execPerPkg = 2

func (u *updateRun) Open(ctx context.Context) error {
	env := u.env
	var err error
	u.gen, u.pol, u.extras, err = env.Fx.generatePolicy()
	if err != nil {
		return err
	}
	u.hostOf = map[string]*host{}
	if env.Tracer != nil {
		u.probe = newMirrorSyncProbe(env.Fx)
	}
	u.n, err = openNode(ctx, u.nodeConfig())
	return err
}

func (u *updateRun) Cycle(ctx context.Context, i int) (cycleOut, error) {
	var out cycleOut
	env := u.env
	tr := env.Tracer
	measured := i >= env.Warmup

	// 03:00 — upstream publishes overnight (not the system under test).
	var upd DayUpdate
	if err := env.untimed(ctx, func() (err error) { upd, err = u.days.Publish(); return err }); err != nil {
		return out, err
	}
	at := dayTime(u.days.Day())
	if i == 0 {
		// The whole fleet enrols on day one. Staggering would buy nothing —
		// every post-update sweep escalates all sessions to a full quote at
		// once anyway — and a later enrolment would replay measurements of
		// file versions that DedupAfterUpdate has since dropped from the
		// policy.
		if err := u.enrol(0, env.Def.Agents, u.pol); err != nil {
			return out, err
		}
	}

	// 05:00 — sync the mirror, regenerate the policy, roll it out.
	if u.probe != nil && tr.enabled() {
		_ = env.untimed(ctx, func() error {
			u.mirrorSyncUs = append(u.mirrorSyncUs, float64(u.probe.Sync(at).Microseconds()))
			return nil
		})
	}
	cand, rep, err := dayPolicy(ctx, tr, u.gen, u.extras, at)
	if err != nil {
		return out, fmt.Errorf("day %d: generating policy: %w", u.days.Day(), err)
	}
	promoted0, rolledBack0 := u.n.RolloutCounts()
	if err := u.n.BeginRollout(ctx, cand); err != nil {
		return out, fmt.Errorf("day %d: beginning rollout: %w", u.days.Day(), err)
	}
	out.Ops++
	sweeps := 0
	for {
		st, err := u.sweep(ctx, measured)
		out.Rounds += st.Attested
		out.Ops += len(u.ids)
		if err != nil {
			return out, fmt.Errorf("day %d: rollout sweep %d: %w", u.days.Day(), sweeps+1, err)
		}
		sweeps++
		idle, promotions, rollbacks, err := u.n.TickRollout(ctx)
		if err != nil {
			return out, fmt.Errorf("day %d: rollout tick: %w", u.days.Day(), err)
		}
		if rollbacks != rolledBack0 {
			return out, fmt.Errorf("day %d: candidate rolled back: a mirror-derived policy must cover the fleet", u.days.Day())
		}
		if idle {
			if promotions != promoted0+1 {
				return out, fmt.Errorf("day %d: rollout went idle without promoting", u.days.Day())
			}
			break
		}
		if sweeps >= 16 {
			return out, fmt.Errorf("day %d: rollout not promoted after %d sweeps", u.days.Day(), sweeps)
		}
	}
	u.pol = cand
	if tr.enabled() {
		u.sweepsToPromote = append(u.sweepsToPromote, float64(sweeps))
		u.entriesAdded = append(u.entriesAdded, float64(rep.EntriesAdded))
	}

	// The machines update from the mirror and run the new binaries.
	if err := env.untimed(ctx, func() error { _, err := u.days.Install(upd, execPerPkg); return err }); err != nil {
		return out, fmt.Errorf("day %d: installing: %w", u.days.Day(), err)
	}

	// Two sweeps attest the new measurements: any failure here is a false
	// positive, which the update procedure exists to prevent.
	for k := 0; k < 2; k++ {
		st, err := u.sweep(ctx, measured)
		out.Rounds += st.Attested
		out.Ops += len(u.ids)
		if err != nil {
			return out, fmt.Errorf("day %d: post-update sweep %d: false positive or lost round: %w", u.days.Day(), k+1, err)
		}
	}
	if err := dedupAfterUpdate(u.gen); err != nil {
		return out, err
	}
	return out, nil
}

func (u *updateRun) Finish(context.Context) error {
	fr, err := u.n.Frontiers()
	if err != nil {
		return err
	}
	for id, h := range u.hostOf {
		if fr[id] != h.LogLen() {
			return fmt.Errorf("agent %s verified %d of its machine's %d measurements", id, fr[id], h.LogLen())
		}
	}
	return u.finish()
}

func (u *updateRun) Layers(l *layerReport) {
	l.set("rollout.sweeps_to_promote", mean(u.sweepsToPromote))
	l.set("core.entries_added_per_day", mean(u.entriesAdded))
	l.set("mirror.sync_ms", mean(u.mirrorSyncUs)/1000)
	u.layers(l)
}
