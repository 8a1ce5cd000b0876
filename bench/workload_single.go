package main

import (
	"context"
	"fmt"
	"sync"
)

// singleNode is the part the three single-verifier workloads share: the
// production stack of one cmd/keylime-verifier process, a fleet enrolled in
// staggered groups, and the sweep-then-persist step of its poll loop.
type singleNode struct {
	env    *benchEnv
	n      *node
	pol    *Policy
	ids    []string // enrolled so far, in enrolment order
	hostOf map[string]*host

	revMu   sync.Mutex // the revocation handler runs on the sweep's workers
	revoked []string

	// Check-level mix of the measured sweeps.
	sessionRounds, fullRounds, forced int

	// Folded in from every node instance (restart_recover opens many).
	transports []*tracingTransport
	rowBytes   int64
	rows       int
}

func (s *singleNode) nodeConfig() nodeConfig {
	return nodeConfig{
		FS: s.env.FS, Dir: s.env.Dir, Tracer: s.env.Tracer,
		OnRevocation: func(agentID, failureType, path string) {
			s.revMu.Lock()
			s.revoked = append(s.revoked, fmt.Sprintf("%s: %s %s", agentID, failureType, path))
			s.revMu.Unlock()
		},
	}
}

// open generates the policy and opens the node.
func (s *singleNode) open(ctx context.Context) error {
	_, pol, _, err := s.env.Fx.generatePolicy()
	if err != nil {
		return err
	}
	s.pol = pol
	s.hostOf = map[string]*host{}
	s.n, err = openNode(ctx, s.nodeConfig())
	return err
}

// enrolGroup enrols the cycle's share of the fleet during the first
// `stagger` warm-up cycles.
func (s *singleNode) enrolGroup(cycle int, pol *Policy) error {
	per := max(1, s.env.Def.Agents/stagger)
	return s.enrol(cycle*per, min((cycle+1)*per, s.env.Def.Agents), pol)
}

// enrol enrols agents [from, to) round-robin over the hosts.
func (s *singleNode) enrol(from, to int, pol *Policy) error {
	hosts := s.env.Fx.Hosts
	for j := from; j < to; j++ {
		id := agentID(s.env.Def.Name[:6], j)
		h := hosts[j%len(hosts)]
		if err := s.n.Enroll(id, h, pol); err != nil {
			return fmt.Errorf("enrolling %s: %w", id, err)
		}
		s.ids = append(s.ids, id)
		s.hostOf[id] = h
	}
	return nil
}

// sweep is one PollAll over the whole fleet followed by the persist step;
// every enrolled agent must attest cleanly. measured says whether the sweep
// belongs to the measured phase.
func (s *singleNode) sweep(ctx context.Context, measured bool) (PollStats, error) {
	st := s.n.Sweep(ctx)
	if measured {
		s.sessionRounds += st.SessionRounds
		s.fullRounds += st.FullQuoteRounds
		s.forced += st.ForcedUpgrades
	}
	if err := checkSweep(st, len(s.ids), 0); err != nil {
		return st, err
	}
	s.revMu.Lock()
	revoked := s.revoked
	s.revMu.Unlock()
	if len(revoked) > 0 {
		return st, fmt.Errorf("unexpected revocation: %s", revoked[0])
	}
	if err := s.n.Persist(ctx); err != nil {
		return st, err
	}
	return st, nil
}

// finish checks that the state store holds exactly the live fleet.
func (s *singleNode) finish() error {
	rows := s.n.State.All()
	if len(rows) != len(s.ids) {
		return fmt.Errorf("state store holds %d rows, fleet has %d agents", len(rows), len(s.ids))
	}
	for _, id := range s.ids {
		if _, ok := rows[id]; !ok {
			return fmt.Errorf("state store has no row for enrolled agent %s", id)
		}
	}
	return nil
}

// Verify walks the node's artifacts and insists the chain is intact.
func (s *singleNode) Verify(context.Context) (records, checkpoints int, err error) {
	rep, records, err := s.n.Verify()
	if err != nil {
		return 0, 0, err
	}
	if !rep.OK() {
		return 0, 0, fmt.Errorf("chain of custody broken: %s", rep.FirstBroken)
	}
	return records, auditCheckpoints(rep), nil
}

// layers reports what every single-node workload knows.
func (s *singleNode) layers(l *layerReport) {
	l.set("policy.lines_end", float64(s.pol.Lines()))
	l.shares(s.sessionRounds, s.fullRounds, s.forced)
}

// Trace folds the live node's counters in with its predecessors'.
func (s *singleNode) Trace() traceSource {
	src := traceSource{
		Policy: s.pol, Transports: s.transports, RowBytes: s.rowBytes, Rows: s.rows,
		AuditPath: s.n.AuditPath(), Keyring: s.n.Keyring,
	}
	if s.n.Transport != nil {
		src.Transports = append(src.Transports[:len(src.Transports):len(src.Transports)], s.n.Transport)
	}
	src.RowBytes += s.n.RowBytes
	src.Rows += s.n.RowsPersisted
	return src
}

// ExtraNet: a single node owns no listener of its own.
func (s *singleNode) ExtraNet() netCounters { return netCounters{} }

// Close closes the node, keeping its counters.
func (s *singleNode) Close() {
	if s.n == nil {
		return
	}
	if s.n.Transport != nil {
		s.transports = append(s.transports, s.n.Transport)
	}
	s.rowBytes += s.n.RowBytes
	s.rows += s.n.RowsPersisted
	s.n.Close()
	s.n = nil
}
