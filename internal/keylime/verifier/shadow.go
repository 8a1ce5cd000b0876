package verifier

// Shadow policy evaluation and policy generations: the verifier-side half
// of the staged rollout pipeline (internal/keylime/rollout).
//
// A one-shot UpdatePolicy swap is the riskiest write path in the system:
// an incomplete policy (the paper's §III-C incident) fires false
// revocations fleet-wide the moment it lands. The shadow slot lets a
// candidate policy ride along with the active one: every attestation
// round evaluates both against the same IMA entries in the same pass
// (no extra log fetch or replay), and where the verdicts diverge the
// verifier records the divergence instead of alerting. A candidate only
// becomes active after N consecutive clean shadow rounds.
//
// Policy generations make promotion crash-consistent: the rollout
// controller journals a monotonically increasing generation with each
// candidate, and InstallPolicyGeneration is idempotent on the generation
// number, so recovery can blindly re-apply the journaled stage without
// double-applying anything. Generation 0 means "unmanaged": the policy
// was installed at enrollment or through the legacy UpdatePolicy path.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/keylime/dsse"
	"repro/internal/policy"
)

// maxShadowDivergence bounds the per-agent divergence detail history; the
// counters keep the full totals.
const maxShadowDivergence = 32

// ShadowDivergence records one entry where the candidate policy's verdict
// differed from the active policy's.
type ShadowDivergence struct {
	Time time.Time
	Path string
	// WouldFail: the candidate rejects an entry the active policy accepts —
	// the §III-C signature (a candidate missing files that are already
	// running would have alerted had it been promoted blindly). When false
	// the divergence is a WouldPass: the candidate accepts an entry the
	// active policy rejects.
	WouldFail bool
	// Detail is the candidate's (or active policy's) error for the entry.
	Detail string
}

// ShadowEvalStatus reports the state of an agent's shadow slot.
type ShadowEvalStatus struct {
	// Installed reports that a candidate occupies the shadow slot.
	Installed bool
	// Generation is the rollout generation of the shadow candidate.
	Generation uint64
	// Rounds counts attestation rounds evaluated against this candidate.
	Rounds int
	// CleanRounds is the current run of consecutive rounds with zero
	// would-fail divergence and a passing active verdict — the counter the
	// rollout controller gates promotion on.
	CleanRounds int
	// WouldFail / WouldPass are cumulative divergent-entry counts.
	WouldFail int
	WouldPass int
	// Divergences is the bounded recent divergence detail.
	Divergences []ShadowDivergence
}

// SetShadowPolicy installs a candidate policy into the agent's shadow slot
// under a rollout generation. Re-installing the same generation is a no-op
// (counters keep accumulating), so crash recovery can re-apply it blindly.
// Installing a different generation replaces the candidate and resets the
// evaluation counters.
func (v *Verifier) SetShadowPolicy(agentID string, gen uint64, pol *policy.RuntimePolicy) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	// The rollout controller re-applies its stage on every tick: answer the
	// already-installed case before paying for a clone and an encoding.
	a.mu.Lock()
	installed := a.shadowPol != nil && a.shadowGen == gen
	a.mu.Unlock()
	if installed {
		return nil
	}
	slot, err := installPolicy(pol)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.shadowPol != nil && a.shadowGen == gen {
		a.mu.Unlock()
		return nil
	}
	a.shadowPol = slot
	a.shadowGen = gen
	a.shadowRounds = 0
	a.shadowClean = 0
	a.shadowWouldFail = 0
	a.shadowWouldPass = 0
	a.shadowDivergences = nil
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// ClearShadowPolicy empties the agent's shadow slot (rollout aborted or
// candidate quarantined).
func (v *Verifier) ClearShadowPolicy(agentID string) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	a.shadowPol = nil
	a.shadowGen = 0
	a.shadowRounds = 0
	a.shadowClean = 0
	a.shadowWouldFail = 0
	a.shadowWouldPass = 0
	a.shadowDivergences = nil
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// ShadowStatus reports the agent's shadow-evaluation state.
func (v *Verifier) ShadowStatus(agentID string) (ShadowEvalStatus, error) {
	a, ok := v.agents.get(agentID)
	if !ok {
		return ShadowEvalStatus{}, fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ShadowEvalStatus{
		Installed:   a.shadowPol != nil,
		Generation:  a.shadowGen,
		Rounds:      a.shadowRounds,
		CleanRounds: a.shadowClean,
		WouldFail:   a.shadowWouldFail,
		WouldPass:   a.shadowWouldPass,
		Divergences: append([]ShadowDivergence(nil), a.shadowDivergences...),
	}, nil
}

// InstallPolicyGeneration atomically installs a policy under a rollout
// generation — the controller's promote and rollback primitive. It is
// idempotent on the generation: when the agent is already at gen the call
// is a no-op, so crash recovery re-applies a journaled stage without
// double-applying. When the shadow slot holds the same generation (the
// candidate being promoted) it is cleared.
func (v *Verifier) InstallPolicyGeneration(agentID string, gen uint64, pol *policy.RuntimePolicy) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	installed := a.policyGen == gen && gen != 0
	a.mu.Unlock()
	if installed {
		return nil
	}
	slot, err := installPolicy(pol)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.policyGen == gen && gen != 0 {
		a.mu.Unlock()
		return nil
	}
	a.pol = slot
	a.policyGen = gen
	// Provenance belongs to the bundle that carried this policy; the
	// controller re-attaches it via SetPolicyEnvelope after a sealed
	// install, and a rollback to an unsealed restore point leaves none.
	a.polEnvelope = nil
	if a.shadowPol != nil && a.shadowGen == gen {
		a.shadowPol = nil
		a.shadowGen = 0
		a.shadowRounds = 0
		a.shadowClean = 0
		a.shadowDivergences = nil
	}
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// SetPolicyEnvelope records the DSSE envelope that sealed the agent's
// active policy bundle — chain-of-custody provenance that rides along in
// state snapshots. The envelope is opaque to the verifier but must parse;
// nil clears the slot.
func (v *Verifier) SetPolicyEnvelope(agentID string, env json.RawMessage) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	var cp json.RawMessage
	if len(env) > 0 {
		if _, err := dsse.Decode(env); err != nil {
			return fmt.Errorf("verifier: policy envelope for %s: %w", agentID, err)
		}
		cp = append(json.RawMessage(nil), env...)
	}
	a.mu.Lock()
	a.polEnvelope = cp
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// ActivePolicy returns a clone of the agent's active policy and its
// rollout generation. The rollout controller captures this before
// promoting a canary so a rollback can restore exactly what the agent
// was attesting against.
func (v *Verifier) ActivePolicy(agentID string) (*policy.RuntimePolicy, uint64, error) {
	a, ok := v.agents.get(agentID)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	pol := a.pol
	gen := a.policyGen
	a.mu.Unlock()
	return pol.Clone(), gen, nil
}

// PolicyGeneration reports the rollout generation of the agent's active
// policy (0 = unmanaged).
func (v *Verifier) PolicyGeneration(agentID string) (uint64, error) {
	a, ok := v.agents.get(agentID)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.policyGen, nil
}
