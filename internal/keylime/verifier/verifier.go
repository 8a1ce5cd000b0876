// Package verifier implements the Keylime verifier: the trusted component
// that periodically challenges agents with fresh nonces, validates TPM
// quotes, replays the IMA measurement list against the quoted PCR 10
// aggregate, and evaluates every new measurement entry against the agent's
// runtime policy.
//
// Two behaviours studied by the paper are modeled explicitly:
//
//   - Stop-on-failure (problem P2): by default the verifier halts polling
//     for an agent after an attestation failure, leaving an incomplete
//     attestation log; an attacker can trigger a benign failure and act
//     inside the blind window. WithContinueOnFailure enables the paper's
//     recommended mitigation (always complete the full attestation).
//   - Incremental log verification: the verifier stores a running replay
//     aggregate over the prefix it has verified and fetches only new
//     entries, detecting reboots via the log-length counter.
package verifier

import (
	"context"
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/filesig"
	"repro/internal/ima"
	"repro/internal/keylime/api"
	"repro/internal/keylime/audit"
	"repro/internal/keylime/httppool"
	"repro/internal/keylime/session"
	"repro/internal/measuredboot"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/tpm"
)

// State is the operational state of a monitored agent.
type State int

// Agent states (reduced from Keylime's operational_state set).
const (
	// StateStart: agent added, no attestation attempted yet.
	StateStart State = iota + 1
	// StateAttesting: last attestation succeeded; polling continues.
	StateAttesting
	// StateFailed: last attestation failed; with stop-on-failure the
	// verifier no longer polls this agent until an operator resumes it.
	StateFailed
	// StateDegraded: the last round(s) hit transient infrastructure
	// faults; no integrity verdict was reached and polling continues.
	StateDegraded
	// StateQuarantined: the circuit breaker opened after persistent
	// faults; the agent is re-probed at a capped interval.
	StateQuarantined
)

var stateNames = map[State]string{
	StateStart:       "Start",
	StateAttesting:   "Get Quote",
	StateFailed:      "Failed",
	StateDegraded:    "Degraded",
	StateQuarantined: "Quarantined",
}

// String returns the Keylime-style state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// FailureType classifies attestation failures.
type FailureType int

// Failure types.
const (
	// FailureComms: the agent could not be reached or answered garbage.
	FailureComms FailureType = iota + 1
	// FailureQuoteInvalid: bad signature, stale nonce, or inconsistent
	// quote structure.
	FailureQuoteInvalid
	// FailureLogTampered: an IMA entry's template hash does not match its
	// fields.
	FailureLogTampered
	// FailureAggregateMismatch: replaying the log does not reproduce the
	// quoted PCR 10 value.
	FailureAggregateMismatch
	// FailureHashMismatch: a measured file's digest differs from every
	// allowed digest in the policy (the paper's FP error type 1).
	FailureHashMismatch
	// FailureNotInPolicy: a measured file is absent from the policy (the
	// paper's FP error type 2).
	FailureNotInPolicy
	// FailureMeasuredBoot: the boot event log does not replay to the
	// quoted PCR 0/4 values, or they diverge from the golden reference
	// state (bootloader/kernel substitution).
	FailureMeasuredBoot
)

var failureNames = map[FailureType]string{
	FailureComms:             "comms-error",
	FailureQuoteInvalid:      "invalid-quote",
	FailureLogTampered:       "log-tampered",
	FailureAggregateMismatch: "aggregate-mismatch",
	FailureHashMismatch:      "hash-mismatch",
	FailureNotInPolicy:       "file-not-in-policy",
	FailureMeasuredBoot:      "measured-boot-mismatch",
}

// String returns a short failure-type label.
func (t FailureType) String() string {
	if n, ok := failureNames[t]; ok {
		return n
	}
	return fmt.Sprintf("failure(%d)", int(t))
}

// Failure records one attestation failure.
type Failure struct {
	Time time.Time
	Type FailureType
	// Path is the measured path involved, when applicable.
	Path string
	// Detail is a human-readable explanation.
	Detail string
}

// Fault records one transient infrastructure fault: a round that could not
// obtain attestation evidence. Faults are operational telemetry, not
// integrity verdicts — they escalate to a FailureComms failure only after
// the configured fault budget of consecutive faulted rounds.
type Fault struct {
	Time time.Time
	// Attempts is how many quote requests the round made before giving up.
	Attempts int
	// Detail is the last underlying error.
	Detail string
}

// Result summarizes one attestation round.
type Result struct {
	// NewEntries is how many measurement entries were fetched this round.
	NewEntries int
	// VerifiedEntries is the total prefix length verified so far.
	VerifiedEntries int
	// RebootDetected reports that the agent's log restarted.
	RebootDetected bool
	// Failure is non-nil when the round failed.
	Failure *Failure
	// Degraded reports that the round ended in a transient infrastructure
	// fault: no evidence was obtained and no integrity verdict reached.
	// Failure is also set when the fault budget escalated to FailureComms.
	Degraded bool
	// Attempts is the total number of quote requests made this round.
	Attempts int
	// FaultDetail describes the transient fault when Degraded.
	FaultDetail string
	// ShadowWouldFail / ShadowWouldPass count this round's divergent
	// entries against the shadow candidate, when one is installed.
	ShadowWouldFail int
	ShadowWouldPass int
	// CheckLevel records which check authenticated this round (full,
	// session, full-forced); CheckNone on degraded rounds.
	CheckLevel CheckLevel
}

// Status is the externally visible state of a monitored agent.
type Status struct {
	AgentID         string
	State           State
	Attestations    int
	VerifiedEntries int
	Failures        []Failure
	// Halted reports that polling is stopped pending operator action.
	Halted bool
	// Degraded reports that the agent is currently in a run of transient
	// faults (state Degraded or Quarantined).
	Degraded bool
	// ConsecutiveFaults is the current run of faulted rounds.
	ConsecutiveFaults int
	// Faults is the recent transient-fault history (bounded).
	Faults []Fault
	// Breaker is the circuit-breaker state.
	Breaker BreakerState
	// BreakerOpenUntil is the reprobe deadline while the breaker is open.
	BreakerOpenUntil time.Time
	// PolicyGeneration is the rollout generation of the active policy
	// (0 = unmanaged: installed at enrollment or via legacy UpdatePolicy).
	PolicyGeneration uint64
	// ShadowGeneration is the generation occupying the shadow slot (0 =
	// empty); see ShadowStatus for the evaluation detail.
	ShadowGeneration uint64
	// SessionActive reports an established attestation session; the next
	// steady-state round will be a session-MAC round.
	SessionActive bool
	// SessionRoundsSinceFull counts session-MAC rounds since the last
	// full quote.
	SessionRoundsSinceFull int
	// LastCheckLevel is the check level of the last completed round
	// ("full", "session", "full-forced"; empty before the first round).
	LastCheckLevel string
}

// Sentinel errors.
var (
	ErrUnknownAgent   = errors.New("verifier: unknown agent")
	ErrRemoved        = errors.New("verifier: agent removed mid-round")
	ErrHalted         = errors.New("verifier: agent halted after failure (stop-on-failure)")
	ErrQuarantined    = errors.New("verifier: agent quarantined by circuit breaker (reprobe pending)")
	ErrDuplicate      = errors.New("verifier: agent already monitored")
	ErrRegistrar      = errors.New("verifier: registrar lookup failed")
	ErrAgentInactive  = errors.New("verifier: agent not activated at registrar")
	ErrUnsignedPolicy = errors.New("verifier: policy trust enforced; unsigned policy update rejected")
	ErrNoPolicyTrust  = errors.New("verifier: no policy trust store configured")
	// ErrStalePolicy rejects a signed policy whose metadata timestamp
	// predates the installed policy's — a replayed old envelope must not
	// roll an agent's policy backwards.
	ErrStalePolicy = errors.New("verifier: signed policy is older than the installed policy")
)

// monitored is the verifier's per-agent state. Each agent carries its own
// locks so cross-agent operations never contend: pollMu serializes rounds,
// mu guards the mutable fields (lock ordering pollMu > mu; see
// registry.go).
type monitored struct {
	// pollMu serializes attestation rounds for this agent: interleaved
	// polls would race on the verification frontier (offset + prefix
	// aggregate) and mis-replay the log.
	pollMu sync.Mutex

	// Immutable after enrollment.
	id    string
	url   string
	akPub []byte
	// akKey is the AK parsed once at enrollment; nil when akPub is not
	// valid PKIX DER, in which case rounds fall back to the per-round
	// parse and fail with the same FailureQuoteInvalid as before.
	akKey *ecdsa.PublicKey
	// akName is the TPM name of the enrolled AK — the session key
	// schedule's salt, binding sessions to the TPM-backed identity.
	akName tpm.Digest
	// attestURL is the agent's binary attestation endpoint.
	attestURL string

	// mu guards everything below.
	mu              sync.Mutex
	removed         bool
	pol             *policySlot
	bootGolden      measuredboot.Golden
	state           State
	halted          bool
	nextOffset      int
	prefixAggregate tpm.Digest
	attestations    int
	failures        []Failure

	// Transient-fault tracking (see retry.go / breaker.go).
	consecutiveFaults int
	faults            []Fault
	breaker           breaker

	// Rollout state (see shadow.go): policyGen is the rollout generation
	// of the active policy (0 = unmanaged), and the shadow slot holds a
	// candidate evaluated side by side with the active policy, recording
	// would-be verdict divergence instead of alerting.
	policyGen uint64
	// polEnvelope is the DSSE envelope that sealed the active policy's
	// rollout bundle — provenance, carried opaque. Cleared whenever a
	// policy installs without one (rollback to an unsealed restore point).
	polEnvelope       json.RawMessage
	shadowPol         *policySlot
	shadowGen         uint64
	shadowRounds      int
	shadowClean       int
	shadowWouldFail   int
	shadowWouldPass   int
	shadowDivergences []ShadowDivergence

	// Sessioned attestation (see session.go): sess is the established
	// session (nil = none; the next round runs a full quote), noBinary
	// remembers an agent that does not speak the binary wire format, and
	// lastCheck is the check level of the last completed round.
	sess      *verifierSession
	noBinary  bool
	lastCheck CheckLevel
}

// policySlot is one installed policy — active or shadow — with its
// canonical JSON beside it. Installed policies are immutable: every
// install site stores a fresh Clone and every reader is handed a Clone.
// So the encoding is produced once per install (or taken from the row on
// restore) and state export reuses it, instead of re-encoding every
// agent's unchanged policy on every sweep.
type policySlot struct {
	*policy.RuntimePolicy
	json json.RawMessage
}

// installPolicy clones pol into a new slot.
func installPolicy(pol *policy.RuntimePolicy) (*policySlot, error) {
	cloned := pol.Clone()
	enc, err := json.Marshal(cloned)
	if err != nil {
		return nil, fmt.Errorf("verifier: serializing policy: %w", err)
	}
	return &policySlot{RuntimePolicy: cloned, json: enc}, nil
}

// isRemoved reports whether the agent was unenrolled after this round
// obtained its pointer.
func (a *monitored) isRemoved() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.removed
}

// maxFaultHistory bounds the per-agent transient-fault history.
const maxFaultHistory = 64

// Option configures the verifier.
type Option interface{ apply(*Verifier) }

type optionFunc func(*Verifier)

func (f optionFunc) apply(v *Verifier) { f(v) }

// WithClock sets the clock used for timestamps and polling.
func WithClock(c simclock.Clock) Option {
	return optionFunc(func(v *Verifier) { v.clock = c })
}

// WithHTTPClient sets the client used to reach agents and the registrar.
func WithHTTPClient(c *http.Client) Option {
	return optionFunc(func(v *Verifier) { v.client = c })
}

// WithPollInterval sets the continuous polling interval (default 2 min,
// Keylime's quote interval order of magnitude).
func WithPollInterval(d time.Duration) Option {
	return optionFunc(func(v *Verifier) { v.pollInterval = d })
}

// WithContinueOnFailure keeps polling and evaluating after attestation
// failures — the paper's recommended mitigation for problem P2.
func WithContinueOnFailure(on bool) Option {
	return optionFunc(func(v *Verifier) { v.continueOnFailure = on })
}

// WithRevocationHandler registers a callback invoked on every failure (the
// alerting/revocation webhook).
func WithRevocationHandler(fn func(agentID string, f Failure)) Option {
	return optionFunc(func(v *Verifier) { v.onRevocation = fn })
}

// WithPolicyTrust requires runtime-policy updates to arrive as envelopes
// signed by a trusted policy generator (the paper's §V ostree-style
// improvement). With a trust store installed, UpdatePolicy rejects unsigned
// policies; use UpdateSignedPolicy.
func WithPolicyTrust(ts *policy.TrustStore) Option {
	return optionFunc(func(v *Verifier) { v.policyTrust = ts })
}

// WithAuditLog records every attestation round into the hash-chained audit
// log (durable attestation).
func WithAuditLog(l *audit.Log) Option {
	return optionFunc(func(v *Verifier) { v.auditLog = l })
}

// WithAuditBatch makes PollAll collect the sweep's audit entries and
// commit them as one audit.Log.AppendBatch after the sweep drains — one
// journal write vector and one fsync per sweep instead of one per
// round. Commit-before-ack moves to sweep granularity: PollAll returns
// only after the batch is durable, but a crash mid-sweep loses the
// in-flight sweep's audit records (their verdicts are re-derived by the
// next sweep). Direct AttestOnce calls still audit inline.
func WithAuditBatch(on bool) Option {
	return optionFunc(func(v *Verifier) { v.auditBatch = on })
}

// WithFileSignatureTrust accepts any measured file whose ima-sig vendor
// signature verifies against the trusted vendor keys, without requiring
// its digest in the runtime policy — the §V signed-hashes improvement.
// Unsigned files (and files with invalid signatures) still go through the
// policy.
func WithFileSignatureTrust(vs *filesig.VerifySet) Option {
	return optionFunc(func(v *Verifier) { v.fileSigTrust = vs })
}

// WithRetryPolicy tunes retry/backoff/timeout behaviour for quote fetches
// and registrar lookups. Zero fields keep their defaults.
func WithRetryPolicy(p RetryPolicy) Option {
	return optionFunc(func(v *Verifier) { v.retry = p.withDefaults() })
}

// WithCommsFaultBudget sets how many consecutive faulted rounds are
// tolerated before a FailureComms failure is recorded (default 3). Unlike
// integrity failures, the escalation never halts the agent: an unreachable
// host is an availability problem, and halting it would reopen the paper's
// P2 blind window on a single dropped packet.
func WithCommsFaultBudget(n int) Option {
	return optionFunc(func(v *Verifier) {
		if n > 0 {
			v.faultBudget = n
		}
	})
}

// WithCircuitBreaker tunes the per-agent circuit breaker that quarantines
// persistently unreachable agents. Zero fields keep their defaults; a
// negative Threshold disables quarantining.
func WithCircuitBreaker(cfg BreakerConfig) Option {
	return optionFunc(func(v *Verifier) { v.breakerCfg = cfg.withDefaults() })
}

// WithPollConcurrency bounds the PollAll worker pool (default
// 4·GOMAXPROCS, minimum 8 — rounds are network-bound, so the sweep pool
// usefully runs wider than the core count). Per-agent rounds stay
// serialized on the agent's poll mutex; concurrency only spans distinct
// agents, so one slow or hung agent cannot stall the fleet.
func WithPollConcurrency(n int) Option {
	return optionFunc(func(v *Verifier) {
		if n > 0 {
			v.pollConcurrency = n
		}
	})
}

// WithVerifyWorkers bounds the worker pool used to validate large IMA
// entry batches (default GOMAXPROCS). Template-hash validation is
// per-entry independent and fans out for batches past a threshold (reboot
// refetch, first poll); the PCR fold itself is an inherently sequential
// extend chain and always runs in order. n <= 0 keeps the default.
func WithVerifyWorkers(n int) Option {
	return optionFunc(func(v *Verifier) {
		if n > 0 {
			v.verifyWorkers = n
		}
	})
}

// WithRoundDeadline bounds each agent's attestation round on the
// verifier's Clock (default: unbounded — the per-request timeouts and
// attempt cap already bound a round). When the deadline fires, the round
// is cut off and recorded as a transient fault.
func WithRoundDeadline(d time.Duration) Option {
	return optionFunc(func(v *Verifier) { v.roundDeadline = d })
}

// Verifier monitors a fleet of agents. Construct with New; it is safe for
// concurrent use.
type Verifier struct {
	registrarURL      string
	client            *http.Client
	clock             simclock.Clock
	pollInterval      time.Duration
	continueOnFailure bool
	onRevocation      func(string, Failure)
	policyTrust       *policy.TrustStore
	auditLog          *audit.Log
	auditBatch        bool
	fileSigTrust      *filesig.VerifySet
	rng               io.Reader
	retry             RetryPolicy
	faultBudget       int
	breakerCfg        BreakerConfig
	pollConcurrency   int
	verifyWorkers     int
	roundDeadline     time.Duration
	jitter            *jitterRand
	nonces            *nonceSource

	agents *registry

	// dirty tracks agents whose persisted state is stale: every mutation
	// (round outcome, enrollment, removal, policy swap, resume) marks its
	// agent, and ExportDirty drains the set so the durability layer
	// journals only changed rows instead of marshaling the whole fleet
	// per sweep. dirtyMu is a leaf lock: never held with any other.
	dirtyMu sync.Mutex
	dirty   map[string]struct{}

	// statsProviders are named operational-stats sources served under
	// GET /v2/stats/{name} (see RegisterStats). The registry lives on the
	// verifier so components the verifier must not import (webhook outbox,
	// rollout controller) can surface their state through the management
	// API. statsMu is a leaf lock.
	statsMu        sync.Mutex
	statsProviders map[string]func() any

	// ownsFn is the cluster ownership predicate (see ownership.go); nil
	// owns every agent. ownsMu is a leaf lock.
	ownsMu sync.RWMutex
	ownsFn func(agentID string) bool

	// Sessioned attestation / wire format settings (see session.go).
	// sessCfgMu is a leaf lock guarding the three settings so
	// SetSessionPolicy can change them at runtime.
	sessCfgMu  sync.RWMutex
	sessEvery  int
	sessTTL    time.Duration
	wireBinary bool

	// Batched quote verification (see batch.go): the pool is created
	// lazily on the first full-quote verification. batchWorkers < 0
	// disables batching (inline verification).
	batchWorkers int
	batchOnce    sync.Once
	batch        *batchVerifier
	closeOnce    sync.Once

	// Cumulative PollAll counters served by the "poll" stats provider
	// (guarded by statsMu).
	pollSweeps int
	pollTotals PollStats
	pollLast   PollStats
}

// defaultPollConcurrency sizes the PollAll worker pool to the host:
// attestation rounds block on the network, so the pool runs wider than
// the core count.
func defaultPollConcurrency() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// New creates a verifier. registrarURL may be empty when agents are added
// with AddAgentWithAK.
func New(registrarURL string, opts ...Option) *Verifier {
	v := &Verifier{
		registrarURL:    registrarURL,
		clock:           simclock.Real{},
		pollInterval:    2 * time.Minute,
		rng:             rand.Reader,
		retry:           RetryPolicy{}.withDefaults(),
		faultBudget:     3,
		breakerCfg:      BreakerConfig{}.withDefaults(),
		pollConcurrency: defaultPollConcurrency(),
		verifyWorkers:   runtime.GOMAXPROCS(0),
		jitter:          newJitterRand(1),
		agents:          newRegistry(),
		dirty:           make(map[string]struct{}),
		statsProviders:  make(map[string]func() any),
	}
	for _, opt := range opts {
		opt.apply(v)
	}
	if v.client == nil {
		// No explicit client: use a pooled transport whose per-host idle
		// pool matches the sweep concurrency, so poll rounds reuse warm
		// connections instead of re-dialing the fleet every interval.
		v.client = httppool.NewClient(v.pollConcurrency)
	}
	v.nonces = newNonceSource(v.rng)
	v.RegisterStats("poll", v.pollStatsSnapshot)
	return v
}

// AddAgent starts monitoring an agent: the AK public key is fetched from
// the registrar, which must report the agent as activated. Transient
// registrar faults (transport errors, timeouts, 5xx) are retried per the
// retry policy so infrastructure churn does not fail enrollments.
func (v *Verifier) AddAgent(agentID, agentURL string, pol *policy.RuntimePolicy) error {
	info, err := v.registrarLookup(context.Background(), agentID)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRegistrar, err)
	}
	if !info.Active {
		return fmt.Errorf("%w: %s", ErrAgentInactive, agentID)
	}
	akPub, err := base64.StdEncoding.DecodeString(info.AKPub)
	if err != nil {
		return fmt.Errorf("%w: decoding AK: %v", ErrRegistrar, err)
	}
	return v.AddAgentWithAK(agentID, agentURL, akPub, pol)
}

// registrarLookup fetches an agent's registrar record, retrying transient
// faults with backoff and a per-request timeout.
func (v *Verifier) registrarLookup(ctx context.Context, agentID string) (api.AgentInfo, error) {
	backoff := v.retry.InitialBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		info, err := v.registrarLookupOnce(ctx, agentID)
		if err == nil {
			return info, nil
		}
		lastErr = err
		if attempt >= v.retry.MaxAttempts || !retryableComms(err) || ctx.Err() != nil {
			return api.AgentInfo{}, lastErr
		}
		if err := v.sleepBackoff(ctx, backoff); err != nil {
			return api.AgentInfo{}, lastErr
		}
		backoff = v.retry.nextBackoff(backoff)
	}
}

func (v *Verifier) registrarLookupOnce(ctx context.Context, agentID string) (api.AgentInfo, error) {
	tctx, stop := v.virtualTimeout(ctx, v.retry.RequestTimeout)
	defer stop()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet,
		v.registrarURL+"/v2/agents/"+url.PathEscape(agentID), nil)
	if err != nil {
		return api.AgentInfo{}, permanentErr("building registrar request: %v", err)
	}
	resp, err := v.client.Do(req)
	if err != nil {
		return api.AgentInfo{}, transientErr("registrar request: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			return api.AgentInfo{}, transientErr("registrar status %d", resp.StatusCode)
		}
		return api.AgentInfo{}, permanentErr("registrar status %d", resp.StatusCode)
	}
	var info api.AgentInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return api.AgentInfo{}, transientErr("decoding agent info: %v", err)
	}
	return info, nil
}

// AddAgentWithAK starts monitoring an agent with an out-of-band trusted AK.
// The AK is parsed from DER here, once per enrollment, so attestation
// rounds verify quotes against the cached key instead of re-parsing every
// poll.
func (v *Verifier) AddAgentWithAK(agentID, agentURL string, akPub []byte, pol *policy.RuntimePolicy) error {
	// A malformed AK is kept nil and surfaces at attestation time as the
	// same invalid-quote failure the per-round parse used to produce.
	akKey, _ := tpm.ParseAKPublic(akPub)
	slot, err := installPolicy(pol)
	if err != nil {
		return err
	}
	a := &monitored{
		id:        agentID,
		url:       agentURL,
		akPub:     append([]byte(nil), akPub...),
		akKey:     akKey,
		akName:    tpm.AKName(akPub),
		attestURL: agentURL + api.AttestPath,
		pol:       slot,
		state:     StateStart,
	}
	if !v.agents.insert(agentID, a) {
		return fmt.Errorf("%w: %s", ErrDuplicate, agentID)
	}
	v.markDirty(agentID)
	return nil
}

// RemoveAgent stops monitoring an agent. A round already in flight for the
// agent observes the removal and reports ErrRemoved instead of recording a
// verdict against the unenrolled agent.
func (v *Verifier) RemoveAgent(agentID string) error {
	a, ok := v.agents.remove(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	a.removed = true
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// UpdatePolicy atomically replaces the runtime policy for an agent — the
// operation the dynamic policy generator performs before each system
// update. With a policy trust store installed, unsigned updates are
// rejected (use UpdateSignedPolicy).
func (v *Verifier) UpdatePolicy(agentID string, pol *policy.RuntimePolicy) error {
	if v.policyTrust != nil {
		return ErrUnsignedPolicy
	}
	return v.swapPolicy(agentID, pol, false)
}

// UpdateSignedPolicy verifies the envelope against the trusted policy-
// generator keys and installs the contained policy. A verified policy
// whose metadata timestamp predates the installed policy's is rejected
// with ErrStalePolicy: a captured old envelope re-sent by an attacker (or
// a confused orchestrator) must not roll the policy backwards.
func (v *Verifier) UpdateSignedPolicy(agentID string, env policy.Envelope) error {
	if v.policyTrust == nil {
		return ErrNoPolicyTrust
	}
	pol, err := v.policyTrust.Verify(env)
	if err != nil {
		return fmt.Errorf("verifier: rejecting policy update: %w", err)
	}
	return v.swapPolicy(agentID, pol, true)
}

// swapPolicy installs a new policy for the agent. The swap resets the
// policy generation to 0 (unmanaged): generations are owned by the rollout
// controller's InstallPolicyGeneration path. checkStale enforces the
// signed-path downgrade guard.
func (v *Verifier) swapPolicy(agentID string, pol *policy.RuntimePolicy, checkStale bool) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	slot, err := installPolicy(pol)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if checkStale {
		curTS := a.pol.Meta().Timestamp
		newTS := slot.Meta().Timestamp
		if !curTS.IsZero() && !newTS.IsZero() && newTS.Before(curTS) {
			a.mu.Unlock()
			return fmt.Errorf("%w: signed %v, installed %v", ErrStalePolicy, newTS, curTS)
		}
	}
	a.pol = slot
	a.policyGen = 0
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// SetBootGolden installs the measured-boot reference state for an agent:
// subsequent attestations validate the boot event log against the quoted
// PCR 0/4 values and these golden values. Pass nil to disable.
func (v *Verifier) SetBootGolden(agentID string, g measuredboot.Golden) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	var cp measuredboot.Golden
	if g != nil {
		cp = make(measuredboot.Golden, len(g))
		for pcr, d := range g {
			cp[pcr] = d
		}
	}
	a.mu.Lock()
	a.bootGolden = cp
	// The evaluation basis changed: a session round (which skips boot
	// validation by construction) must not bridge it — force a full quote.
	a.sess = nil
	a.mu.Unlock()
	v.markDirty(agentID)
	return nil
}

// Resume re-arms polling for a failed agent after the operator resolved the
// failure (e.g. fixed the policy). Verified-prefix state is retained, so
// attestation picks up at the entry that failed. Resume also resets the
// fault counter and closes the circuit breaker.
func (v *Verifier) Resume(agentID string) error {
	a, ok := v.agents.get(agentID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.halted = false
	a.consecutiveFaults = 0
	a.breaker.recordSuccess()
	// Whatever the operator fixed, the next round re-verifies in full.
	a.sess = nil
	if a.state == StateFailed || a.state == StateDegraded || a.state == StateQuarantined {
		a.state = StateAttesting
	}
	v.markDirty(agentID)
	return nil
}

// Status reports the current state of an agent.
func (v *Verifier) Status(agentID string) (Status, error) {
	a, ok := v.agents.get(agentID)
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		AgentID:           a.id,
		State:             a.state,
		Attestations:      a.attestations,
		VerifiedEntries:   a.nextOffset,
		Failures:          append([]Failure(nil), a.failures...),
		Halted:            a.halted,
		Degraded:          a.state == StateDegraded || a.state == StateQuarantined,
		ConsecutiveFaults: a.consecutiveFaults,
		Faults:            append([]Fault(nil), a.faults...),
		Breaker:           a.breaker.state,
		BreakerOpenUntil:  a.breaker.openUntil,
		PolicyGeneration:  a.policyGen,
		ShadowGeneration:  a.shadowGen,
		SessionActive:     a.sess != nil,
		SessionRoundsSinceFull: func() int {
			if a.sess != nil {
				return a.sess.roundsSinceFull
			}
			return 0
		}(),
		LastCheckLevel: a.lastCheck.String(),
	}, nil
}

// AgentIDs returns the monitored agent ids.
func (v *Verifier) AgentIDs() []string {
	return v.agents.ids()
}

// markDirty flags an agent's persisted state as stale.
func (v *Verifier) markDirty(agentID string) {
	v.dirtyMu.Lock()
	v.dirty[agentID] = struct{}{}
	v.dirtyMu.Unlock()
}

// fail records a failure, fires the revocation handler, and halts the agent
// unless continue-on-failure is enabled.
func (v *Verifier) fail(a *monitored, f Failure) *Failure {
	a.mu.Lock()
	a.failures = append(a.failures, f)
	a.state = StateFailed
	// An integrity failure invalidates the session: the next round must
	// re-verify the full evidence chain, never coast on a MAC.
	a.sess = nil
	if !v.continueOnFailure {
		a.halted = true
	}
	a.mu.Unlock()
	v.markDirty(a.id)
	if v.onRevocation != nil {
		v.onRevocation(a.id, f)
	}
	return &f
}

// commsFault records a transient infrastructure fault for the round: the
// agent stays in Degraded (or Quarantined, once the breaker opens) and is
// never halted. When the consecutive-fault run reaches the fault budget, a
// single FailureComms failure is recorded and the revocation handler fires
// so operators learn about the outage — but polling continues, because an
// unreachable host is an availability problem, not evidence of compromise,
// and halting it would reopen the paper's P2 blind window.
func (v *Verifier) commsFault(a *monitored, now time.Time, attempts int, err error) Result {
	a.mu.Lock()
	a.consecutiveFaults++
	ft := Fault{Time: now, Attempts: attempts, Detail: err.Error()}
	a.faults = append(a.faults, ft)
	if len(a.faults) > maxFaultHistory {
		a.faults = append(a.faults[:0], a.faults[len(a.faults)-maxFaultHistory:]...)
	}
	a.state = StateDegraded
	if a.breaker.recordFault(now, v.breakerCfg, a.consecutiveFaults) {
		a.state = StateQuarantined
	}
	var failure *Failure
	if a.consecutiveFaults == v.faultBudget {
		f := Failure{Time: now, Type: FailureComms,
			Detail: fmt.Sprintf("%d consecutive transient faults (budget %d), last: %v",
				a.consecutiveFaults, v.faultBudget, err)}
		a.failures = append(a.failures, f)
		failure = &f
	}
	a.mu.Unlock()
	v.markDirty(a.id)
	if failure != nil && v.onRevocation != nil {
		v.onRevocation(a.id, *failure)
	}
	return Result{Degraded: true, Attempts: attempts, FaultDetail: ft.Detail, Failure: failure}
}

// commsOK resets the fault run after a successful fetch: the agent is
// reachable again, the breaker closes, and a degraded/quarantined state
// returns to attesting (the round outcome may still set Failed).
func (v *Verifier) commsOK(a *monitored) {
	a.mu.Lock()
	a.consecutiveFaults = 0
	a.breaker.recordSuccess()
	if a.state == StateDegraded || a.state == StateQuarantined {
		a.state = StateAttesting
	}
	a.mu.Unlock()
}

// AttestOnce runs one attestation round for the agent. When the agent is
// halted (stop-on-failure), it returns ErrHalted without contacting the
// agent — the blind window of problem P2. With an audit log configured,
// every completed round (pass or fail) is recorded durably.
func (v *Verifier) AttestOnce(ctx context.Context, agentID string) (Result, error) {
	return v.attestRecorded(ctx, agentID, nil)
}

// attestRecorded runs one round and records it in the audit log. With a
// collector (PollAll in batch mode) the sealed entry is deferred to the
// sweep's single batched append; without one it is appended — and made
// durable — inline before the result is returned.
func (v *Verifier) attestRecorded(ctx context.Context, agentID string, collect *[]audit.Entry) (Result, error) {
	res, err := v.attestOnce(ctx, agentID)
	// Degraded rounds obtained no evidence: they are not audited as passes.
	// The round that escalates to FailureComms is audited as a failure.
	if err == nil && v.auditLog != nil && (!res.Degraded || res.Failure != nil) {
		entry := audit.Entry{
			Time:            v.clock.Now(),
			AgentID:         agentID,
			Outcome:         audit.OutcomePass,
			NewEntries:      res.NewEntries,
			VerifiedEntries: res.VerifiedEntries,
			RebootDetected:  res.RebootDetected,
			CheckLevel:      res.CheckLevel.String(),
		}
		if res.Failure != nil {
			entry.Outcome = audit.OutcomeFail
			entry.FailureType = res.Failure.Type.String()
			entry.FailurePath = res.Failure.Path
		}
		if collect != nil {
			*collect = append(*collect, entry)
		} else if _, aerr := v.auditLog.Append(entry); aerr != nil {
			return res, fmt.Errorf("verifier: recording attestation: %w", aerr)
		}
	}
	return res, err
}

// attestOnce performs the attestation round. Rounds for one agent are
// serialized on the agent's poll mutex; no lock is held across network
// I/O or quote verification.
func (v *Verifier) attestOnce(ctx context.Context, agentID string) (Result, error) {
	a, ok := v.agents.get(agentID)
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrUnknownAgent, agentID)
	}
	if err := v.checkOwned(agentID); err != nil {
		return Result{}, err
	}
	a.pollMu.Lock()
	defer a.pollMu.Unlock()

	now := v.clock.Now()
	a.mu.Lock()
	if a.removed {
		a.mu.Unlock()
		return Result{}, fmt.Errorf("%w: %s", ErrRemoved, agentID)
	}
	if a.halted {
		a.mu.Unlock()
		return Result{}, fmt.Errorf("%w: %s", ErrHalted, agentID)
	}
	if !a.breaker.allow(now) {
		a.mu.Unlock()
		return Result{}, fmt.Errorf("%w: %s", ErrQuarantined, agentID)
	}
	offset := a.nextOffset
	pol := a.pol
	bootGolden := a.bootGolden
	shadowPol := a.shadowPol
	shadowGen := a.shadowGen
	sess := a.sess
	noBinary := a.noBinary
	a.mu.Unlock()

	if v.roundDeadline > 0 {
		var stopRound func()
		ctx, stopRound = v.virtualTimeout(ctx, v.roundDeadline)
		defer stopRound()
	}

	cfg := v.sessionCfg()
	useBinary := cfg.binary && !noBinary
	sessionsOn := useBinary && cfg.every > 1

	// Round decision: a session-MAC round runs only for a live session
	// this verifier negotiated itself, below its rotation count and TTL.
	// Everything else — including a session restored from a snapshot or
	// handed off by the cluster layer — runs a full quote; restored
	// sessions are never trusted blind. estID is the fresh session ID any
	// full quote this round may establish (also sent with session
	// requests as a renew hint, so an agent-side escalation re-keys in
	// the same round trip).
	checkLevel := CheckFull
	var estID session.ID
	if sessionsOn {
		if id, iderr := v.newSessionID(); iderr == nil {
			estID = id
		}
	}
	trySession := sessionsOn && sess != nil && !sess.forceFull && !estID.IsZero() &&
		sess.roundsSinceFull < cfg.every-1 &&
		(cfg.ttl <= 0 || now.Sub(sess.established) < cfg.ttl)
	if sessionsOn && sess != nil && sess.forceFull {
		checkLevel = CheckForcedFull
	}
	var replaces session.ID
	if sess != nil {
		replaces = sess.id
	}

	// Infrastructure faults (transport errors, timeouts, bad statuses,
	// garbled bodies) are retried per the retry policy and, when the whole
	// round fails, recorded as a transient fault — never as an instant
	// integrity verdict.
	var resp fetched
	var attempts int
	var err error
	needFull := true

	if trySession {
		resp, attempts, err = v.retryFetch(ctx, func(ctx context.Context) (fetched, error) {
			return v.fetchSessionOnce(ctx, a, sess.id, estID, offset)
		})
		switch {
		case errors.Is(err, errNoBinary):
			// The agent lost the binary endpoint (restart, downgrade):
			// the session cannot be checked — renegotiate over JSON.
			a.setNoBinary()
			v.dropSession(a, sess)
			useBinary, sessionsOn = false, false
			checkLevel = CheckForcedFull
			err = nil
		case err != nil:
			return v.roundFault(a, agentID, now, attempts, err)
		case resp.session != nil:
			if reason := checkSessionFrame(sess, resp.session, resp.nonce, offset); reason == "" {
				if a.isRemoved() {
					return Result{}, fmt.Errorf("%w: %s", ErrRemoved, agentID)
				}
				if oerr := v.checkOwned(agentID); oerr != nil {
					return Result{}, oerr
				}
				return v.commitSessionRound(a, sess, attempts, shadowGen), nil
			}
			// Divergence or MAC failure: drop the session and escalate to
			// a fresh full quote in this same round. The full quote — not
			// the failed session check — decides the verdict.
			v.dropSession(a, sess)
			checkLevel = CheckForcedFull
		default:
			// The agent answered the session request with a full quote
			// (unknown/expired session or moved state on its side),
			// already establishing estID: no extra round trip needed.
			checkLevel = CheckForcedFull
			needFull = false
		}
	}

	if needFull {
		var fullAttempts int
		resp, fullAttempts, err = v.fetchEvidence(ctx, a, offset, estID, replaces, useBinary)
		attempts += fullAttempts
		if err != nil {
			return v.roundFault(a, agentID, now, attempts, err)
		}
	}
	rebooted := false
	if resp.resp.TotalEntries < offset {
		// The agent's measurement list is shorter than the verified
		// prefix: the machine rebooted. Restart verification from zero.
		// The refetch reuses the retry policy: a network blip during the
		// reboot window must not be mistaken for an integrity problem.
		rebooted = true
		offset = 0
		var refetchAttempts int
		resp, refetchAttempts, err = v.fetchEvidence(ctx, a, 0, estID, replaces, useBinary)
		attempts += refetchAttempts
		if err != nil {
			return v.roundFault(a, agentID, now, attempts, err)
		}
	}
	if a.isRemoved() {
		// Unenrolled while the evidence fetch was in flight: no verdict
		// may be recorded (and no revocation fired) for an agent that is
		// no longer monitored.
		return Result{}, fmt.Errorf("%w: %s", ErrRemoved, agentID)
	}
	if err := v.checkOwned(agentID); err != nil {
		// Ownership lost while the fetch was in flight (handoff mid-round):
		// the gaining verifier records the verdicts from here on.
		return Result{}, err
	}
	v.commsOK(a)

	// Binary rounds carry the quote structurally; JSON rounds decode it
	// from the base64/hex wire form.
	quote := resp.quote
	if !resp.binary {
		quote, err = api.DecodeQuote(resp.resp.Quote)
		if err != nil {
			return Result{CheckLevel: checkLevel,
				Failure: v.fail(a, Failure{Time: now, Type: FailureQuoteInvalid, Detail: err.Error()})}, nil
		}
	}
	pcrs, err := v.verifyQuote(a, &quote, resp.nonce)
	if err != nil {
		return Result{CheckLevel: checkLevel,
			Failure: v.fail(a, Failure{Time: now, Type: FailureQuoteInvalid, Detail: err.Error()})}, nil
	}
	entries, err := ima.ParseLog(resp.resp.IMALog)
	if err != nil {
		return Result{CheckLevel: checkLevel,
			Failure: v.fail(a, Failure{Time: now, Type: FailureLogTampered, Detail: err.Error()})}, nil
	}

	// Measured boot validation (when a golden reference state is set):
	// the boot event log must replay to the quoted PCR 0/4 values, which
	// must match the golden values.
	if bootGolden != nil {
		mbLog, err := api.DecodeBootLog(resp.resp.MBLog)
		if err != nil {
			return Result{RebootDetected: rebooted, CheckLevel: checkLevel,
				Failure: v.fail(a, Failure{Time: now, Type: FailureMeasuredBoot, Detail: err.Error()})}, nil
		}
		if err := bootGolden.Validate(mbLog, pcrs); err != nil {
			return Result{RebootDetected: rebooted, CheckLevel: checkLevel,
				Failure: v.fail(a, Failure{Time: now, Type: FailureMeasuredBoot, Detail: err.Error()})}, nil
		}
	}

	// Structural validation and replay, single pass: each entry's template
	// hash is recomputed once (Valid) and the running aggregate folded
	// incrementally, with every intermediate value kept so the verified
	// frontier below needs no second replay. A structurally invalid entry
	// anywhere in the batch fails the round before the aggregate is
	// compared, matching the original multi-pass ordering.
	a.mu.Lock()
	prefix := a.prefixAggregate
	if rebooted {
		prefix = tpm.Digest{}
	}
	a.mu.Unlock()
	aggs, invalid := verifyAndFold(prefix, entries, v.verifyWorkers)
	if invalid >= 0 {
		f := Failure{Time: now, Type: FailureLogTampered, Path: entries[invalid].Path,
			Detail: "template hash does not match entry fields"}
		return Result{RebootDetected: rebooted, CheckLevel: checkLevel, Failure: v.fail(a, f)}, nil
	}
	aggregate := prefix
	if len(entries) > 0 {
		aggregate = aggs[len(entries)-1]
	}
	if aggregate != pcrs[tpm.PCRIMA] {
		f := Failure{Time: now, Type: FailureAggregateMismatch,
			Detail: "IMA log replay does not match quoted PCR 10"}
		return Result{RebootDetected: rebooted, CheckLevel: checkLevel, Failure: v.fail(a, f)}, nil
	}

	// Policy evaluation, entry by entry. Under stop-on-failure (Keylime's
	// default, problem P2) evaluation stops at the first failing entry,
	// which stays at the verification frontier so a resumed attestation
	// re-evaluates it. Under the continue-on-failure mitigation every
	// entry is evaluated and each failure is recorded.
	//
	// When a shadow candidate is installed, each entry the loop visits is
	// additionally checked against it in the same pass: a diverging verdict
	// is recorded (never alerted), and a round with zero would-fail
	// divergence and a passing active verdict advances the clean-round
	// counter the rollout controller gates promotion on.
	verified := 0
	var firstFailure *Failure
	var shadowWF, shadowWP int
	var shadowDivs []ShadowDivergence
	for i, e := range entries {
		if e.Path == ima.BootAggregatePath {
			verified = i + 1
			continue
		}
		if v.fileSigTrust != nil && e.Signature != "" &&
			v.fileSigTrust.VerifyHex(e.FileDigest, e.Signature) {
			// Vendor-signed file: appraised by key, no policy entry
			// required (§V signed-hashes improvement) — for the shadow
			// candidate too, since signature trust is policy-independent.
			verified = i + 1
			continue
		}
		activeErr := pol.Check(e.Path, e.FileDigest)
		if shadowPol != nil {
			shadowErr := shadowPol.Check(e.Path, e.FileDigest)
			if (shadowErr == nil) != (activeErr == nil) {
				d := ShadowDivergence{Time: now, Path: e.Path, WouldFail: shadowErr != nil}
				if shadowErr != nil {
					shadowWF++
					d.Detail = shadowErr.Error()
				} else {
					shadowWP++
					d.Detail = activeErr.Error()
				}
				if len(shadowDivs) < maxShadowDivergence {
					shadowDivs = append(shadowDivs, d)
				}
			}
		}
		if activeErr != nil {
			ftype := FailureNotInPolicy
			if errors.Is(activeErr, policy.ErrHashMismatch) {
				ftype = FailureHashMismatch
			}
			f := v.fail(a, Failure{Time: now, Type: ftype, Path: e.Path, Detail: activeErr.Error()})
			if firstFailure == nil {
				firstFailure = f
			}
			if !v.continueOnFailure {
				break
			}
		}
		verified = i + 1
	}

	a.mu.Lock()
	a.nextOffset = offset + verified
	// The verified-prefix aggregate is a lookup into the fold computed
	// above, not a second replay.
	a.prefixAggregate = prefix
	if verified > 0 {
		a.prefixAggregate = aggs[verified-1]
	}
	if firstFailure == nil {
		a.state = StateAttesting
		a.attestations++
		if sessionsOn && resp.established && !estID.IsZero() {
			// The agent derived the same key from this verified exchange;
			// the session's reference state is the just-verified quote.
			key := session.DeriveKey(a.akName, quote.Signature, resp.nonce, estID)
			a.sess = &verifierSession{
				id:          estID,
				key:         key,
				mac:         session.NewMACer(key[:]),
				established: now,
				composite:   quote.Attested.PCRDigest,
				total:       offset + verified,
			}
		} else if sess != nil && a.sess == sess {
			// A full round that did not (re)establish retires the session.
			a.sess = nil
		}
	}
	a.lastCheck = checkLevel
	// Commit the round's shadow evaluation — only if the slot still holds
	// the generation this round snapshotted (a concurrent rollout step may
	// have replaced or cleared the candidate mid-round).
	if shadowPol != nil && a.shadowPol != nil && a.shadowGen == shadowGen {
		a.shadowRounds++
		a.shadowWouldFail += shadowWF
		a.shadowWouldPass += shadowWP
		if shadowWF == 0 && firstFailure == nil {
			a.shadowClean++
		} else {
			a.shadowClean = 0
		}
		a.shadowDivergences = append(a.shadowDivergences, shadowDivs...)
		if n := len(a.shadowDivergences); n > maxShadowDivergence {
			a.shadowDivergences = append(a.shadowDivergences[:0], a.shadowDivergences[n-maxShadowDivergence:]...)
		}
	}
	res := Result{
		NewEntries:      len(entries),
		VerifiedEntries: a.nextOffset,
		RebootDetected:  rebooted,
		Failure:         firstFailure,
		Attempts:        attempts,
		ShadowWouldFail: shadowWF,
		ShadowWouldPass: shadowWP,
		CheckLevel:      checkLevel,
	}
	a.mu.Unlock()
	v.markDirty(agentID)
	return res, nil
}

type fetched struct {
	resp  api.QuoteResponse
	nonce []byte
	// binary marks evidence that arrived on the binary wire format:
	// quote then carries the structural quote (resp.Quote stays empty)
	// and established reports whether the agent installed the session
	// the request asked to establish.
	binary      bool
	quote       tpm.Quote
	established bool
	// session is the agent's session-MAC answer, when the round was a
	// session round the agent did not escalate.
	session *api.SessionRound
}

// roundFault finishes a round whose evidence fetch failed: removal and
// ownership changes observed mid-flight abort without a verdict,
// anything else records a transient comms fault.
func (v *Verifier) roundFault(a *monitored, agentID string, now time.Time, attempts int, err error) (Result, error) {
	if a.isRemoved() {
		return Result{}, fmt.Errorf("%w: %s", ErrRemoved, agentID)
	}
	if oerr := v.checkOwned(agentID); oerr != nil {
		return Result{}, oerr
	}
	return v.commsFault(a, now, attempts, err), nil
}

// fetchQuote challenges the agent with a fresh nonce. Each attempt is
// bounded by the retry policy's request timeout on the verifier's Clock —
// including the body read, so a hung agent cannot stall the round. Errors
// are classified: transport errors, timeouts, 5xx statuses, and garbled
// bodies are transient (retryable); 4xx statuses and malformed requests are
// permanent infrastructure faults (still not integrity verdicts).
func (v *Verifier) fetchQuote(ctx context.Context, agentURL string, offset int) (fetched, error) {
	nonce := make([]byte, nonceSize)
	if err := v.nonces.next(nonce); err != nil {
		return fetched{}, permanentErr("generating nonce: %v", err)
	}
	tctx, stop := v.virtualTimeout(ctx, v.retry.RequestTimeout)
	defer stop()
	u := agentURL + "/v2/quotes/integrity?nonce=" + base64.URLEncoding.EncodeToString(nonce) +
		"&offset=" + strconv.Itoa(offset)
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, u, nil)
	if err != nil {
		return fetched{}, permanentErr("building quote request: %v", err)
	}
	httpResp, err := v.client.Do(req)
	if err != nil {
		return fetched{}, transientErr("quote request: %v", err)
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		if httpResp.StatusCode >= 500 {
			return fetched{}, transientErr("quote request: status %d: %s", httpResp.StatusCode, body)
		}
		return fetched{}, permanentErr("quote request: status %d: %s", httpResp.StatusCode, body)
	}
	var qr api.QuoteResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&qr); err != nil {
		return fetched{}, transientErr("decoding quote response: %v", err)
	}
	return fetched{resp: qr, nonce: nonce}, nil
}

// PollStats summarizes one PollAll sweep over the fleet. Halted and
// Quarantined expose the agents a sweep did NOT attest — the silent blind
// spots a fleet operator must see.
type PollStats struct {
	// Attested counts rounds that obtained evidence and reached a verdict.
	Attested int
	// Failed counts attested rounds whose verdict was a failure.
	Failed int
	// Degraded counts rounds that ended in a transient infrastructure
	// fault (no verdict).
	Degraded int
	// Halted counts agents skipped because stop-on-failure halted them.
	Halted int
	// Quarantined counts agents skipped by an open circuit breaker.
	Quarantined int
	// Removed counts agents that were unenrolled between the sweep's ID
	// snapshot and their round — fleet churn, not an attestation problem.
	Removed int
	// NotOwned counts agents skipped (or abandoned mid-round) because the
	// cluster ownership predicate assigns them to another verifier — ring
	// churn during a handoff, not an attestation problem.
	NotOwned int
	// Errors counts other round errors.
	Errors int
	// SessionRounds counts attested rounds authenticated by session MAC.
	SessionRounds int
	// FullQuoteRounds counts attested rounds authenticated by a full
	// quote (scheduled or forced).
	FullQuoteRounds int
	// ForcedUpgrades counts full-quote rounds that were escalations: a
	// session existed but was refused (MAC failure, state divergence,
	// agent escalation, restored/handed-off session). Always a subset of
	// FullQuoteRounds.
	ForcedUpgrades int
	// AuditBatched counts audit records committed through the sweep's
	// batched append (zero when audit batching is off).
	AuditBatched int
	// AuditFlushErrs counts sweeps whose batched audit append failed —
	// those sweeps' records are NOT durable and the error was reported
	// here rather than failing every round.
	AuditFlushErrs int
}

// add folds o into s.
func (s *PollStats) add(o PollStats) {
	s.Attested += o.Attested
	s.Failed += o.Failed
	s.Degraded += o.Degraded
	s.Halted += o.Halted
	s.Quarantined += o.Quarantined
	s.Removed += o.Removed
	s.NotOwned += o.NotOwned
	s.Errors += o.Errors
	s.SessionRounds += o.SessionRounds
	s.FullQuoteRounds += o.FullQuoteRounds
	s.ForcedUpgrades += o.ForcedUpgrades
	s.AuditBatched += o.AuditBatched
	s.AuditFlushErrs += o.AuditFlushErrs
}

// record classifies one round outcome into the stats.
func (s *PollStats) record(res Result, err error) {
	switch {
	case errors.Is(err, ErrHalted):
		s.Halted++
	case errors.Is(err, ErrQuarantined):
		s.Quarantined++
	case errors.Is(err, ErrRemoved), errors.Is(err, ErrUnknownAgent):
		// The ID came from this sweep's snapshot, so an unknown agent
		// can only mean it was removed after the snapshot was taken.
		s.Removed++
	case errors.Is(err, ErrNotOwner):
		s.NotOwned++
	case err != nil:
		s.Errors++
	case res.Degraded:
		s.Degraded++
	default:
		s.Attested++
		if res.Failure != nil {
			s.Failed++
		}
		switch res.CheckLevel {
		case CheckSession:
			s.SessionRounds++
		case CheckFull:
			s.FullQuoteRounds++
		case CheckForcedFull:
			s.FullQuoteRounds++
			s.ForcedUpgrades++
		}
	}
}

// PollAll runs one attestation round for every monitored agent through a
// bounded worker pool, so one slow or hung agent delays only its own round,
// not the fleet sweep. Per-agent rounds stay serialized on the agent's poll
// mutex. Each worker accumulates its own PollStats, merged once when the
// sweep drains — there is no shared counter lock on the sweep hot path.
// Agents removed after the sweep's ID snapshot surface as Removed, not
// Errors, so operators can tell fleet churn from real round errors.
func (v *Verifier) PollAll(ctx context.Context) PollStats {
	ids := v.AgentIDs()
	workers := v.pollConcurrency
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	batchAudit := v.auditBatch && v.auditLog != nil
	var (
		wg      sync.WaitGroup
		work    = make(chan string)
		stats   = make([]PollStats, workers)
		entries = make([][]audit.Entry, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *PollStats, collect *[]audit.Entry) {
			defer wg.Done()
			if !batchAudit {
				collect = nil
			}
			for id := range work {
				res, err := v.attestRecorded(ctx, id, collect)
				st.record(res, err)
			}
		}(&stats[w], &entries[w])
	}
	for _, id := range ids {
		work <- id
	}
	close(work)
	wg.Wait()
	var st PollStats
	for i := range stats {
		st.add(stats[i])
	}
	if batchAudit {
		// The whole sweep's audit records in one journal write vector,
		// one fsync. PollAll does not return until the batch is durable,
		// so the commit-before-ack contract holds at sweep granularity.
		var sweep []audit.Entry
		for _, es := range entries {
			sweep = append(sweep, es...)
		}
		recs, err := v.auditLog.AppendBatch(sweep)
		st.AuditBatched += len(recs)
		if err != nil {
			st.AuditFlushErrs++
		}
	}
	v.notePoll(st)
	return st
}

// notePoll folds one sweep's stats into the cumulative counters served
// by the "poll" stats provider.
func (v *Verifier) notePoll(st PollStats) {
	v.statsMu.Lock()
	v.pollSweeps++
	v.pollTotals.add(st)
	v.pollLast = st
	v.statsMu.Unlock()
}

// PollStatsReport is the "poll" stats provider's payload
// (GET /v2/stats/poll): cumulative counters across all sweeps plus the
// last completed sweep. The session/full-quote/forced-upgrade split is
// what lets an operator confirm the fleet is riding the session fast
// path — and spot a fleet-wide forced-upgrade spike, which means state
// is churning or something is replaying MACs.
type PollStatsReport struct {
	Sweeps     int       `json:"sweeps"`
	Cumulative PollStats `json:"cumulative"`
	LastSweep  PollStats `json:"last_sweep"`
}

// pollStatsSnapshot is the registered "poll" stats provider.
func (v *Verifier) pollStatsSnapshot() any {
	v.statsMu.Lock()
	defer v.statsMu.Unlock()
	return PollStatsReport{
		Sweeps:     v.pollSweeps,
		Cumulative: v.pollTotals,
		LastSweep:  v.pollLast,
	}
}

// Run polls every monitored agent at the configured interval until the
// context is cancelled. Agents added while running are picked up on the
// next tick.
func (v *Verifier) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-v.clock.After(v.pollInterval):
		}
		v.PollAll(ctx)
	}
}

// StartPolling runs the continuous attestation loop for one agent until the
// context is cancelled or (under stop-on-failure) the agent halts. It
// returns the number of attestation rounds performed.
func (v *Verifier) StartPolling(ctx context.Context, agentID string) (int, error) {
	rounds := 0
	for {
		select {
		case <-ctx.Done():
			return rounds, ctx.Err()
		case <-v.clock.After(v.pollInterval):
		}
		_, err := v.AttestOnce(ctx, agentID)
		if errors.Is(err, ErrHalted) {
			// Problem P2: the verifier stops polling after a failure.
			return rounds, err
		}
		if errors.Is(err, ErrQuarantined) {
			// Open breaker: skip this tick, keep the loop alive — the
			// agent is re-probed when the reprobe deadline passes.
			continue
		}
		if err != nil {
			return rounds, err
		}
		rounds++
	}
}
