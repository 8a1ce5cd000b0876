package main

import "context"

// steadyRun is steady_sessions: nothing changes, the verifier sweeps.
type steadyRun struct{ singleNode }

func newSteady(env *benchEnv) (workload, error) {
	return &steadyRun{singleNode: singleNode{env: env}}, nil
}

func (s *steadyRun) Open(ctx context.Context) error { return s.open(ctx) }

func (s *steadyRun) Cycle(ctx context.Context, i int) (cycleOut, error) {
	if err := s.enrolGroup(i, s.pol); err != nil {
		return cycleOut{}, err
	}
	st, err := s.sweep(ctx, i >= s.env.Warmup)
	return cycleOut{Rounds: st.Attested, Ops: len(s.ids)}, err
}

func (s *steadyRun) Finish(context.Context) error { return s.finish() }

func (s *steadyRun) Layers(l *layerReport) {
	s.layers(l)
	l.set("store.compactions", float64(s.n.Compactions()))
}
