package verifier

// Verifier state persistence: real Keylime keeps its per-agent verification
// state in a database so a verifier restart does not lose the verification
// frontier (which would force a full IMA log re-fetch and re-evaluation, or
// worse, re-trust decisions). ExportState/RestoreState serialize the
// monitored-agent table — enrollment data, policy, verified prefix,
// failure history and measured-boot golden values — as JSON.

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/keylime/api"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/session"
	"repro/internal/measuredboot"
	"repro/internal/policy"
	"repro/internal/tpm"
)

// FailureState is the serialized form of a Failure.
type FailureState struct {
	Time   time.Time `json:"time"`
	Type   int       `json:"type"`
	Path   string    `json:"path,omitempty"`
	Detail string    `json:"detail"`
}

// FaultState is the serialized form of a transient Fault.
type FaultState struct {
	Time     time.Time `json:"time"`
	Attempts int       `json:"attempts"`
	Detail   string    `json:"detail"`
}

// BreakerSnapshot is the serialized circuit-breaker state, so a verifier
// restart neither forgets an open quarantine nor hot-loops a dead host.
type BreakerSnapshot struct {
	State     int       `json:"state"`
	OpenUntil time.Time `json:"open_until,omitempty"`
	IntervalS float64   `json:"interval_s,omitempty"`
	Opens     int       `json:"opens,omitempty"`
}

// AgentState is the serialized verification state of one monitored agent.
type AgentState struct {
	AgentID string `json:"agent_id"`
	URL     string `json:"url"`
	// AKPub is base64 PKIX DER.
	AKPub string `json:"ak_pub"`
	// The cold blobs — golden values, the active policy, its provenance
	// envelope, the shadow candidate — come before every counter: rows
	// decode by name, so the order is free, and with the bytes that change
	// only on an update day in front, two consecutive rows of an agent
	// differ in one short run near the end, which is what the state store
	// journals (store.Store patches a row against its predecessor).
	//
	// BootGolden maps PCR index to hex digest.
	BootGolden map[int]string  `json:"boot_golden,omitempty"`
	Policy     json.RawMessage `json:"policy"`
	// PolicyEnvelope is the DSSE envelope that sealed the active policy's
	// rollout bundle (chain-of-custody provenance), absent for unmanaged
	// or rolled-back policies. It is carried opaque but must at least
	// parse as an envelope: an undecodable one is a corrupt row.
	PolicyEnvelope json.RawMessage `json:"policy_envelope,omitempty"`
	ShadowPolicy   json.RawMessage `json:"shadow_policy,omitempty"`
	State          int             `json:"state"`
	Halted         bool            `json:"halted"`
	// NextOffset / PrefixAggregate are the verification frontier.
	NextOffset      int            `json:"next_offset"`
	PrefixAggregate string         `json:"prefix_aggregate"`
	Attestations    int            `json:"attestations"`
	Failures        []FailureState `json:"failures,omitempty"`
	// Transient-fault tracking state.
	ConsecutiveFaults int              `json:"consecutive_faults,omitempty"`
	Faults            []FaultState     `json:"faults,omitempty"`
	Breaker           *BreakerSnapshot `json:"breaker,omitempty"`
	// Rollout state: the active policy's generation and the shadow slot's
	// counters. Persisting both means a verifier restart mid-rollout
	// resumes shadow evaluation (and generation idempotency) instead of
	// silently dropping the candidate.
	PolicyGeneration  uint64 `json:"policy_generation,omitempty"`
	ShadowGeneration  uint64 `json:"shadow_generation,omitempty"`
	ShadowRounds      int    `json:"shadow_rounds,omitempty"`
	ShadowCleanRounds int    `json:"shadow_clean_rounds,omitempty"`
	ShadowWouldFail   int    `json:"shadow_would_fail,omitempty"`
	ShadowWouldPass   int    `json:"shadow_would_pass,omitempty"`
	// Attestation-session state (see session.go). A restored session is
	// NEVER resumed on the MAC fast path: restoreAgent marks it
	// force-full, so the restoring verifier (restart or cluster
	// failover) renegotiates via a full quote before trusting any
	// session MAC — a replicated session must not let a new owner accept
	// downgraded evidence it never verified the provenance of.
	SessionID          string     `json:"session_id,omitempty"`
	SessionKey         string     `json:"session_key,omitempty"`
	SessionEstablished *time.Time `json:"session_established,omitempty"`
	SessionRounds      int        `json:"session_rounds,omitempty"`
	SessionComposite   string     `json:"session_composite,omitempty"`
	SessionTotal       int        `json:"session_total,omitempty"`
	LastCheckLevel     int        `json:"last_check_level,omitempty"`
}

// Snapshot is the verifier's full serialized agent table.
type Snapshot struct {
	Agents []AgentState `json:"agents"`
}

// ExportState snapshots the monitored-agent table shard by shard. The
// snapshot is consistent per agent (each agent is serialized under its own
// lock) but not a fleet-wide point in time: rounds completing on other
// agents while the export runs land in the snapshot or not depending on
// ordering. That matches what a database-backed verifier provides — row
// consistency, not a global transaction over the fleet.
func (v *Verifier) ExportState() (Snapshot, error) {
	var st Snapshot
	for _, a := range v.agents.snapshot() {
		a.mu.Lock()
		as := exportAgentLocked(a)
		a.mu.Unlock()
		if as != nil {
			st.Agents = append(st.Agents, *as)
		}
	}
	return st, nil
}

// exportAgentLocked serializes one agent; a.mu must be held. Returns nil
// for an agent removed after the shard snapshot was taken. The policies
// are not encoded here: the row carries the slots' install-time JSON.
func exportAgentLocked(a *monitored) *AgentState {
	if a.removed {
		return nil
	}
	as := AgentState{
		AgentID:         a.id,
		URL:             a.url,
		AKPub:           base64.StdEncoding.EncodeToString(a.akPub),
		Policy:          a.pol.json,
		State:           int(a.state),
		Halted:          a.halted,
		NextOffset:      a.nextOffset,
		PrefixAggregate: hex.EncodeToString(a.prefixAggregate[:]),
		Attestations:    a.attestations,
	}
	for _, f := range a.failures {
		as.Failures = append(as.Failures, FailureState{
			Time: f.Time, Type: int(f.Type), Path: f.Path, Detail: f.Detail,
		})
	}
	as.ConsecutiveFaults = a.consecutiveFaults
	for _, f := range a.faults {
		as.Faults = append(as.Faults, FaultState{
			Time: f.Time, Attempts: f.Attempts, Detail: f.Detail,
		})
	}
	if a.breaker.state != BreakerClosed || a.breaker.opens > 0 {
		as.Breaker = &BreakerSnapshot{
			State:     int(a.breaker.state),
			OpenUntil: a.breaker.openUntil,
			IntervalS: a.breaker.interval.Seconds(),
			Opens:     a.breaker.opens,
		}
	}
	if a.bootGolden != nil {
		as.BootGolden = make(map[int]string, len(a.bootGolden))
		for pcr, d := range a.bootGolden {
			as.BootGolden[pcr] = hex.EncodeToString(d[:])
		}
	}
	as.PolicyGeneration = a.policyGen
	as.PolicyEnvelope = a.polEnvelope
	as.LastCheckLevel = int(a.lastCheck)
	if s := a.sess; s != nil {
		as.SessionID = hex.EncodeToString(s.id[:])
		as.SessionKey = base64.StdEncoding.EncodeToString(s.key[:])
		t := s.established
		as.SessionEstablished = &t
		as.SessionRounds = s.roundsSinceFull
		as.SessionComposite = hex.EncodeToString(s.composite[:])
		as.SessionTotal = s.total
	}
	if a.shadowPol != nil {
		as.ShadowPolicy = a.shadowPol.json
		as.ShadowGeneration = a.shadowGen
		as.ShadowRounds = a.shadowRounds
		as.ShadowCleanRounds = a.shadowClean
		as.ShadowWouldFail = a.shadowWouldFail
		as.ShadowWouldPass = a.shadowWouldPass
	}
	return &as
}

// AgentCount reports the number of agents in the monitored table.
func (v *Verifier) AgentCount() int { return v.agents.len() }

// ExportDirty drains the dirty-agent set and serializes only those rows:
// the incremental counterpart of ExportState, sized to what one sweep
// actually changed instead of the whole fleet. It returns the changed
// agents' states plus the IDs of agents that were removed (or vanished)
// since the last export. The error result is always nil — a row carries
// its policies pre-encoded, nothing is serialized here that can fail — and
// stays because callers are written against it; the same holds for
// ExportState and ExportAgents.
func (v *Verifier) ExportDirty() (changed []AgentState, removed []string, err error) {
	v.dirtyMu.Lock()
	ids := make([]string, 0, len(v.dirty))
	for id := range v.dirty {
		ids = append(ids, id)
	}
	v.dirty = make(map[string]struct{})
	v.dirtyMu.Unlock()

	for _, id := range ids {
		a, ok := v.agents.get(id)
		if !ok {
			removed = append(removed, id)
			continue
		}
		a.mu.Lock()
		as := exportAgentLocked(a)
		a.mu.Unlock()
		if as == nil {
			removed = append(removed, id)
			continue
		}
		changed = append(changed, *as)
	}
	return changed, removed, nil
}

// RestoreError reports one snapshot row skipped by a lenient restore.
type RestoreError struct {
	AgentID string
	// Field names the AgentState field that failed decoding (e.g.
	// "ak_pub", "policy", "prefix_aggregate"), empty when the failure was
	// not field-specific (duplicate row).
	Field string
	Err   error
}

func (e RestoreError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("verifier: restoring %s: field %s: %v", e.AgentID, e.Field, e.Err)
	}
	return fmt.Sprintf("verifier: restoring %s: %v", e.AgentID, e.Err)
}

func (e RestoreError) Unwrap() error { return e.Err }

// fieldErr tags a restore failure with the snapshot field that caused it,
// so lenient restores can report which field of which row was corrupt.
type fieldErr struct {
	field string
	err   error
}

func (e fieldErr) Error() string { return fmt.Sprintf("%s: %v", e.field, e.err) }
func (e fieldErr) Unwrap() error { return e.err }

// RestoreState loads a snapshot into an empty verifier; monitoring resumes
// at the persisted verification frontier. One malformed row aborts the
// whole restore; use RestoreStateLenient to skip-and-report instead.
func (v *Verifier) RestoreState(st Snapshot) error {
	_, err := v.restoreState(st, false)
	return err
}

// RestoreStateLenient loads a snapshot, skipping (and reporting) corrupt
// rows instead of aborting: a single bad record must not keep the entire
// fleet unmonitored. Every intact agent resumes at its persisted
// frontier; the returned slice lists the rows that were skipped.
func (v *Verifier) RestoreStateLenient(st Snapshot) ([]RestoreError, error) {
	return v.restoreState(st, true)
}

func (v *Verifier) restoreState(st Snapshot, lenient bool) ([]RestoreError, error) {
	if n := v.agents.len(); n != 0 {
		return nil, fmt.Errorf("verifier: RestoreState requires an empty verifier (%d agents present)", n)
	}
	var skipped []RestoreError
	parsed := make(map[string]*policySlot)
	for _, as := range st.Agents {
		a, err := restoreAgent(as, parsed)
		if err == nil && !v.agents.insert(as.AgentID, a) {
			err = fmt.Errorf("duplicate agent in snapshot")
		}
		if err != nil {
			if !lenient {
				return nil, fmt.Errorf("verifier: restoring %s: %w", as.AgentID, err)
			}
			skipped = append(skipped, newRestoreError(as.AgentID, err))
		}
	}
	return skipped, nil
}

// newRestoreError builds the skip report for one row, lifting the field
// name out of a fieldErr when the failure was field-specific.
func newRestoreError(agentID string, err error) RestoreError {
	re := RestoreError{AgentID: agentID, Err: err}
	var fe fieldErr
	if errors.As(err, &fe) {
		re.Field = fe.field
		re.Err = fe.err
	}
	return re
}

// restorePolicy returns the slot for a row's policy bytes. parsed, local
// to one restore or import, holds the slot of every distinct encoding
// seen so far: a fleet restored from rows that share a policy parses it
// once and the agents share the immutable result. The row's bytes become
// the slot's encoding — they are what was parsed. A policy that fails to
// parse is not remembered, so each row carrying it reports its own error.
func restorePolicy(raw json.RawMessage, parsed map[string]*policySlot) (*policySlot, error) {
	if slot, ok := parsed[string(raw)]; ok {
		return slot, nil
	}
	pol := policy.New()
	if err := json.Unmarshal(raw, pol); err != nil {
		return nil, err
	}
	slot := &policySlot{RuntimePolicy: pol, json: append(json.RawMessage(nil), raw...)}
	parsed[string(raw)] = slot
	return slot, nil
}

// restoreAgent deserializes one snapshot row into a monitored agent.
func restoreAgent(as AgentState, parsed map[string]*policySlot) (*monitored, error) {
	if as.AgentID == "" {
		return nil, fieldErr{"agent_id", fmt.Errorf("missing agent id")}
	}
	akPub, err := base64.StdEncoding.DecodeString(as.AKPub)
	if err != nil {
		return nil, fieldErr{"ak_pub", err}
	}
	var pol *policySlot
	if len(as.Policy) > 0 {
		pol, err = restorePolicy(as.Policy, parsed)
	} else {
		pol, err = installPolicy(policy.New())
	}
	if err != nil {
		return nil, fieldErr{"policy", err}
	}
	var prefix tpm.Digest
	raw, err := hex.DecodeString(as.PrefixAggregate)
	if err != nil || len(raw) != len(prefix) {
		return nil, fieldErr{"prefix_aggregate", fmt.Errorf("bad hex digest (%d bytes, want %d)", len(raw), len(prefix))}
	}
	copy(prefix[:], raw)
	// Re-derive the cached parsed AK; nil on parse failure keeps the
	// pre-enrollment-cache behavior (per-round parse, quote-invalid
	// verdicts) for snapshots carrying a malformed key.
	akKey, _ := tpm.ParseAKPublic(akPub)
	a := &monitored{
		id:              as.AgentID,
		url:             as.URL,
		akPub:           akPub,
		akKey:           akKey,
		akName:          tpm.AKName(akPub),
		attestURL:       as.URL + api.AttestPath,
		pol:             pol,
		state:           restoreStateEnum(as.State),
		halted:          as.Halted,
		nextOffset:      as.NextOffset,
		prefixAggregate: prefix,
		attestations:    as.Attestations,
		lastCheck:       restoreCheckLevelEnum(as.LastCheckLevel),
	}
	a.sess = restoreSession(as)
	for _, f := range as.Failures {
		a.failures = append(a.failures, Failure{
			Time: f.Time, Type: FailureType(f.Type), Path: f.Path, Detail: f.Detail,
		})
	}
	a.consecutiveFaults = as.ConsecutiveFaults
	for _, f := range as.Faults {
		a.faults = append(a.faults, Fault{
			Time: f.Time, Attempts: f.Attempts, Detail: f.Detail,
		})
	}
	if as.Breaker != nil {
		a.breaker = breaker{
			state:     restoreBreakerEnum(as.Breaker.State),
			openUntil: as.Breaker.OpenUntil,
			interval:  time.Duration(as.Breaker.IntervalS * float64(time.Second)),
			opens:     as.Breaker.Opens,
		}
	}
	a.policyGen = as.PolicyGeneration
	if len(as.PolicyEnvelope) > 0 {
		if _, err := dsse.Decode(as.PolicyEnvelope); err != nil {
			return nil, fieldErr{"policy_envelope", err}
		}
		a.polEnvelope = append(json.RawMessage(nil), as.PolicyEnvelope...)
	}
	if len(as.ShadowPolicy) > 0 {
		shadow, err := restorePolicy(as.ShadowPolicy, parsed)
		if err != nil {
			return nil, fieldErr{"shadow_policy", err}
		}
		a.shadowPol = shadow
		a.shadowGen = as.ShadowGeneration
		a.shadowRounds = as.ShadowRounds
		a.shadowClean = as.ShadowCleanRounds
		a.shadowWouldFail = as.ShadowWouldFail
		a.shadowWouldPass = as.ShadowWouldPass
	}
	if len(as.BootGolden) > 0 {
		g := make(measuredboot.Golden, len(as.BootGolden))
		for pcr, h := range as.BootGolden {
			var d tpm.Digest
			rawD, err := hex.DecodeString(h)
			if err != nil || len(rawD) != len(d) {
				return nil, fieldErr{"boot_golden", fmt.Errorf("bad golden PCR %d", pcr)}
			}
			copy(d[:], rawD)
			g[pcr] = d
		}
		a.bootGolden = g
	}
	return a, nil
}

// restoreSession rebuilds the persisted session, always marked force-full:
// this verifier did not negotiate it, so the next round must renegotiate
// via a full quote instead of trusting the replicated MAC state blind. A
// malformed session row is dropped (nil) rather than failing the agent —
// sessions are disposable and renegotiate on the next round anyway.
func restoreSession(as AgentState) *verifierSession {
	if as.SessionID == "" {
		return nil
	}
	idRaw, err := hex.DecodeString(as.SessionID)
	if err != nil || len(idRaw) != session.IDSize {
		return nil
	}
	keyRaw, err := base64.StdEncoding.DecodeString(as.SessionKey)
	if err != nil || len(keyRaw) != session.KeySize {
		return nil
	}
	compRaw, err := hex.DecodeString(as.SessionComposite)
	if err != nil || len(compRaw) != len(tpm.Digest{}) {
		return nil
	}
	s := &verifierSession{
		roundsSinceFull: as.SessionRounds,
		total:           as.SessionTotal,
		forceFull:       true,
		forceReason:     "restored from snapshot",
	}
	copy(s.id[:], idRaw)
	copy(s.key[:], keyRaw)
	copy(s.composite[:], compRaw)
	s.mac = session.NewMACer(s.key[:])
	if as.SessionEstablished != nil {
		s.established = *as.SessionEstablished
	}
	return s
}

// restoreCheckLevelEnum converts a persisted int back to a CheckLevel,
// defaulting to CheckNone for unknown values.
func restoreCheckLevelEnum(i int) CheckLevel {
	c := CheckLevel(i)
	switch c {
	case CheckNone, CheckFull, CheckSession, CheckForcedFull:
		return c
	default:
		return CheckNone
	}
}

// restoreStateEnum converts a persisted int back to a State value,
// defaulting to StateStart for unknown values.
func restoreStateEnum(i int) State {
	s := State(i)
	switch s {
	case StateStart, StateAttesting, StateFailed, StateDegraded, StateQuarantined:
		return s
	default:
		return StateStart
	}
}

// restoreBreakerEnum converts a persisted int back to a BreakerState,
// defaulting to closed for unknown values.
func restoreBreakerEnum(i int) BreakerState {
	s := BreakerState(i)
	switch s {
	case BreakerClosed, BreakerOpen, BreakerHalfOpen:
		return s
	default:
		return BreakerClosed
	}
}
