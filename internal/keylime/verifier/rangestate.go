package verifier

// Ring-range state transfer. A cluster handoff moves whole sets of agents
// between live verifiers: the losing node exports the rows the new
// assignment takes away, the coordinator ships them, and the gaining node
// imports them into its (running, non-empty) verifier. Unlike
// RestoreState this happens on a live fleet, so import is per-row lenient
// and replace-aware, and removal flags each agent so in-flight rounds
// abort with ErrRemoved instead of recording a verdict on the old owner.

import "fmt"

// ExportAgents serializes the named agents' rows. IDs not (or no longer)
// monitored are silently skipped — the caller's ID list is a snapshot,
// and churn during a handoff is expected.
func (v *Verifier) ExportAgents(ids []string) ([]AgentState, error) {
	out := make([]AgentState, 0, len(ids))
	for _, id := range ids {
		a, ok := v.agents.get(id)
		if !ok {
			continue
		}
		a.mu.Lock()
		as := exportAgentLocked(a)
		a.mu.Unlock()
		if as != nil {
			out = append(out, *as)
		}
	}
	return out, nil
}

// ExportWhere serializes every monitored agent the predicate selects —
// typically a consistent-hash ring range.
func (v *Verifier) ExportWhere(pred func(agentID string) bool) ([]AgentState, error) {
	ids := v.AgentIDs()
	sel := ids[:0]
	for _, id := range ids {
		if pred(id) {
			sel = append(sel, id)
		}
	}
	return v.ExportAgents(sel)
}

// ImportAgents loads serialized rows into a live verifier. replace
// controls collisions: true overwrites an existing row (the authoritative
// handoff transfer — the shipped row carries the frontier the old owner
// flushed), false keeps the existing row and skips the import (the
// replica-gather path, where a local row is at least as fresh). Corrupt
// rows are skipped and reported, never fatal: one bad row must not stall
// a failover that is re-homing a dead node's fleet.
func (v *Verifier) ImportAgents(states []AgentState, replace bool) []RestoreError {
	var skipped []RestoreError
	parsed := make(map[string]*policySlot)
	for _, as := range states {
		a, err := restoreAgent(as, parsed)
		if err != nil {
			skipped = append(skipped, newRestoreError(as.AgentID, err))
			continue
		}
		if v.agents.insert(as.AgentID, a) {
			v.markDirty(as.AgentID)
			continue
		}
		if !replace {
			skipped = append(skipped, RestoreError{
				AgentID: as.AgentID,
				Err:     fmt.Errorf("already monitored; import skipped"),
			})
			continue
		}
		if old, ok := v.agents.remove(as.AgentID); ok {
			old.mu.Lock()
			old.removed = true
			old.mu.Unlock()
		}
		if !v.agents.insert(as.AgentID, a) {
			// A concurrent enrollment won the race for the freed slot; the
			// row that made it in stays.
			skipped = append(skipped, RestoreError{
				AgentID: as.AgentID,
				Err:     fmt.Errorf("lost insert race during replace"),
			})
			continue
		}
		v.markDirty(as.AgentID)
	}
	return skipped
}

// RemoveAgents unenrolls the named agents (missing IDs are ignored) and
// reports how many were present. In-flight rounds observe the removal and
// abort without a verdict, exactly as single-agent RemoveAgent.
func (v *Verifier) RemoveAgents(ids []string) int {
	n := 0
	for _, id := range ids {
		if v.RemoveAgent(id) == nil {
			n++
		}
	}
	return n
}
