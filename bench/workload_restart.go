package main

import (
	"context"
	"fmt"
)

// restartRun is restart_recover: warm-up builds history with steady cycles;
// each measured cycle is a graceful stop and a start of the whole process.
type restartRun struct {
	singleNode
	compactions int // of the node instances already closed
}

func newRestart(env *benchEnv) (workload, error) {
	return &restartRun{singleNode: singleNode{env: env}}, nil
}

func (r *restartRun) Open(ctx context.Context) error { return r.open(ctx) }

func (r *restartRun) Cycle(ctx context.Context, i int) (cycleOut, error) {
	if i < r.env.Warmup {
		// History building: a steady cycle.
		if err := r.enrolGroup(i, r.pol); err != nil {
			return cycleOut{}, err
		}
		st, err := r.sweep(ctx, false)
		return cycleOut{Rounds: st.Attested, Ops: len(r.ids)}, err
	}
	out := cycleOut{Ops: 1}
	fleet := len(r.ids)

	// Graceful stop of every durable component, then a cold start: keyring,
	// audit journal (chain verified on open), state store (snapshot +
	// journal scan), RestoreState, rollout.New.
	r.compactions += r.n.Compactions()
	r.Close()
	var err error
	r.n, err = openNode(ctx, r.nodeConfig())
	if err != nil {
		return out, fmt.Errorf("restart: %w", err)
	}
	if r.n.Restored != fleet {
		return out, fmt.Errorf("restart restored %d agents, fleet has %d", r.n.Restored, fleet)
	}
	// Frontier continuity: every agent resumes at the measurement it had
	// verified, so the first round fetches no log it already replayed.
	fr, err := r.n.Frontiers()
	if err != nil {
		return out, err
	}
	for id, h := range r.hostOf {
		if fr[id] != h.LogLen() {
			return out, fmt.Errorf("agent %s restored at frontier %d, its machine's log has %d entries: full-log refetch", id, fr[id], h.LogLen())
		}
	}

	// First sweep: every restored session must renegotiate with a full quote.
	st, err := r.sweep(ctx, true)
	out.Rounds += st.Attested
	out.Ops += fleet
	if err != nil {
		return out, err
	}
	if st.FullQuoteRounds != fleet || st.SessionRounds != 0 {
		return out, fmt.Errorf("first sweep after restart: %d full quotes, %d session rounds; want %d full", st.FullQuoteRounds, st.SessionRounds, fleet)
	}
	// Second sweep: back on the session fast path.
	st, err = r.sweep(ctx, true)
	out.Rounds += st.Attested
	out.Ops += fleet
	if err != nil {
		return out, err
	}
	if st.SessionRounds != fleet {
		return out, fmt.Errorf("second sweep after restart: %d session rounds, want %d", st.SessionRounds, fleet)
	}
	return out, nil
}

func (r *restartRun) Finish(context.Context) error { return r.finish() }

func (r *restartRun) Layers(l *layerReport) {
	r.layers(l)
	l.set("store.compactions", float64(r.compactions+r.n.Compactions()))
}
