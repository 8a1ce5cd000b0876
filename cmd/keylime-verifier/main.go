// Command keylime-verifier runs the Keylime verifier as a standalone HTTP
// service: it serves the management API (used by keylime-tenant) and polls
// every enrolled agent at the configured interval.
//
// Usage:
//
//	keylime-verifier -listen :8893 -registrar http://localhost:8891 \
//	  -poll-interval 10s [-continue-on-failure]
//
// Verification state survives restarts via -state. The default mode keeps
// a crash-safe journal+snapshot directory and persists only the agents
// each sweep actually changed; -state-mode snapshot keeps the legacy
// single-JSON-file format (written atomically). The audit log (-audit-log)
// is an fsynced journal appended record by record, and -outbox journals
// revocation notifications for at-least-once delivery across crashes.
//
// With -keyring the verifier seals its whole evidence chain of custody
// under DSSE signatures: per-sweep checkpoints in the audit journal,
// revocation notifications in the outbox, rollout policy bundles, and
// cluster replication frames. -keyring-rotate mints a new signing key
// with an overlap window so evidence sealed before the rotation stays
// verifiable; `keylime-tenant verify-chain` walks the artifacts offline.
//
// Policy updates can go through the staged rollout pipeline (freshness
// gate → shadow evaluation → canary → fleet promotion, with automatic
// rollback) served at /v2/rollout/* and driven by keylime-tenant's
// rollout-* subcommands; -rollout-state journals generations so a crash
// mid-rollout recovers to a consistent fleet. See the -rollout-* flags.
//
// Multiple verifiers form a cluster with -node-id and -peers: agents are
// partitioned across replicas on a consistent-hash ring, each shard's
// journal is replicated to ring standbys, and a lease-elected coordinator
// fails dead shards over so attestation continues from the replicated
// frontier. Cluster state rides the same -state journal directory; peers
// exchange RPCs on /v2/cluster/rpc and report health on
// /v2/cluster/status. SIGTERM drains gracefully in every mode: the HTTP
// listener stops, the in-flight sweep finishes, journals and the outbox
// are flushed, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/keylime/audit"
	"repro/internal/keylime/cluster"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/reconcile"
	"repro/internal/keylime/rollout"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/keylime/webhook"
	"repro/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("keylime-verifier: %v", err)
	}
}

func run() error {
	var (
		listen       = flag.String("listen", ":8893", "address to serve the management API on")
		registrarURL = flag.String("registrar", "http://localhost:8891", "registrar base URL")
		pollInterval = flag.Duration("poll-interval", 10*time.Second, "attestation polling interval")
		continueOn   = flag.Bool("continue-on-failure", false,
			"keep polling after attestation failures (the paper's P2 mitigation)")
		statePath = flag.String("state", "", "persist/restore verification state here "+
			"(a journal directory by default; a JSON file with -state-mode snapshot)")
		stateMode = flag.String("state-mode", "journal",
			"state persistence mode: journal (incremental, crash-safe) or snapshot (legacy full-file)")
		stateLenient = flag.Bool("state-lenient", false,
			"skip-and-report corrupt state rows on restore instead of refusing to start")
		persistBatch = flag.Int("persist-batch", 256,
			"max journal records committed per fsync: the sweep's dirty agent rows and "+
				"audit records are batched into single write vectors and the audit/outbox "+
				"journals group-commit concurrent appends (0 restores per-record fsyncs)")
		persistMaxDelay = flag.Duration("persist-max-delay", 2*time.Millisecond,
			"longest a group-committed audit/outbox append waits for batch "+
				"co-travellers before its fsync is issued anyway")
		keyringPath = flag.String("keyring", "", "journaled DSSE keyring path; arms chain-of-custody "+
			"sealing end to end: audit checkpoints, revocation notifications, rollout policy "+
			"bundles, and cluster replication frames (created with an initial key if absent)")
		keyringRotate = flag.Bool("keyring-rotate", false,
			"mint a new signing key at startup; prior keys keep cosigning (rotation overlap) "+
				"until retired, so old evidence stays verifiable across the keyid boundary")
		auditPath  = flag.String("audit-log", "", "append the durable attestation journal at this path")
		outboxPath = flag.String("outbox", "", "journal revocation notifications here for "+
			"at-least-once delivery across restarts (requires -webhook)")
		webhookURL = flag.String("webhook", "", "POST signed revocation notifications to this URL")
		webhookKey = flag.String("webhook-secret", "", "HMAC secret for webhook signatures")

		retryAttempts = flag.Int("retry-attempts", 3, "quote/registrar fetch attempts per round")
		retryBackoff  = flag.Duration("retry-backoff", 200*time.Millisecond,
			"initial retry backoff (doubled per retry, jittered)")
		retryMaxBackoff = flag.Duration("retry-max-backoff", 5*time.Second, "retry backoff cap")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second,
			"per-request timeout including the body read")
		faultBudget = flag.Int("comms-fault-budget", 3,
			"consecutive faulted rounds tolerated before a comms failure is recorded (never halts)")
		breakerThreshold = flag.Int("breaker-threshold", 5,
			"consecutive faulted rounds that quarantine an agent (negative disables)")
		breakerInterval = flag.Duration("breaker-interval", time.Minute, "initial quarantine reprobe interval")
		breakerMax      = flag.Duration("breaker-max-interval", 15*time.Minute, "quarantine reprobe interval cap")
		pollConcurrency = flag.Int("poll-concurrency", 0,
			"concurrent agent rounds per polling sweep (0 = auto: 4x GOMAXPROCS, minimum 8)")
		verifyWorkers = flag.Int("verify-workers", 0,
			"worker pool for validating large IMA entry batches (0 = GOMAXPROCS)")
		cryptoWorkers = flag.Int("crypto-workers", 0,
			"dedicated workers batching full-quote signature verification "+
				"(0 = GOMAXPROCS, negative verifies inline on the sweep workers)")

		sessionEvery = flag.Int("session-every", 16,
			"force a full TPM quote every Nth round, authenticating the rounds "+
				"between with the per-agent session MAC (0 or 1 disables sessions)")
		sessionTTL = flag.Duration("session-ttl", 10*time.Minute,
			"maximum session-key age before the next round forces a full quote (0 = no expiry)")
		wireFormat = flag.String("wire-format", "binary",
			"attestation wire format: binary (compact frames, JSON fallback for "+
				"old agents) or json")

		pprofAddr = flag.String("pprof", "",
			"serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")

		rolloutState = flag.String("rollout-state", "", "journal staged policy rollouts in this "+
			"directory so a crash mid-rollout recovers to a consistent generation")
		rolloutShadowRounds = flag.Int("rollout-shadow-rounds", 3,
			"consecutive clean shadow rounds every agent needs before canary promotion")
		rolloutCanary = flag.Int("rollout-canary", 1,
			"agents promoted first as canaries during a staged rollout")
		rolloutCanaryRounds = flag.Int("rollout-canary-rounds", 2,
			"clean post-promotion rounds every canary needs before fleet promotion")
		rolloutTripwire = flag.Int("rollout-tripwire", 1,
			"new failures on any canary that trip the rollback tripwire")
		rolloutAutoRollback = flag.Bool("rollout-auto-rollback", true,
			"revert canaries and quarantine the candidate automatically when the tripwire fires "+
				"(false freezes the rollout for the operator instead)")

		reconcileOn = flag.Bool("reconcile", false,
			"enable the declarative fleet reconciler: desired-state specs applied via "+
				"keylime-tenant fleet-apply are journaled and continuously converged "+
				"(requires -reconcile-state)")
		reconcileState = flag.String("reconcile-state", "",
			"journal the desired-fleet spec and managed set in this directory so a "+
				"killed reconciler resumes without duplicate enrollments or lost withdrawals")
		reconcileInterval = flag.Duration("reconcile-interval", 10*time.Second,
			"how often the reconcile loop diffs desired vs actual state")
		tenantQuota = flag.Int("tenant-quota", 0,
			"default max enrolled agents per tenant (0 = unlimited; per-tenant spec overrides win)")
		tenantRate = flag.Float64("tenant-rate", 0,
			"default reconcile-op token-bucket rate per tenant in ops/sec (0 = unlimited)")

		nodeID = flag.String("node-id", "", "this verifier's cluster identity; enables cluster "+
			"mode (must appear in -peers)")
		peersFlag = flag.String("peers", "", "static cluster membership as comma-separated "+
			"id=base-url pairs, e.g. v1=http://10.0.0.1:8893,v2=http://10.0.0.2:8893 "+
			"(include this node)")
		replicas         = flag.Int("replicas", 1, "ring standbys that replicate each shard's journal")
		clusterHeartbeat = flag.Duration("cluster-heartbeat", time.Second,
			"coordinator heartbeat cadence; a peer silent for 4 heartbeats is failed over")
	)
	flag.Parse()
	if *stateMode != "journal" && *stateMode != "snapshot" {
		return fmt.Errorf("unknown -state-mode %q (want journal or snapshot)", *stateMode)
	}
	if *outboxPath != "" && *webhookURL == "" {
		return fmt.Errorf("-outbox requires -webhook")
	}
	if *wireFormat != "binary" && *wireFormat != "json" {
		return fmt.Errorf("unknown -wire-format %q (want binary or json)", *wireFormat)
	}
	if *reconcileOn && *reconcileState == "" {
		return fmt.Errorf("-reconcile requires -reconcile-state (the journaled spec is the whole point)")
	}
	if *keyringRotate && *keyringPath == "" {
		return fmt.Errorf("-keyring-rotate requires -keyring")
	}
	clusterMode := *nodeID != "" || *peersFlag != ""
	var peerAddrs map[string]string
	if clusterMode {
		if *nodeID == "" || *peersFlag == "" {
			return fmt.Errorf("cluster mode needs both -node-id and -peers")
		}
		var err error
		peerAddrs, err = parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		if _, ok := peerAddrs[*nodeID]; !ok {
			return fmt.Errorf("-node-id %q not listed in -peers", *nodeID)
		}
		if *statePath == "" || *stateMode != "journal" {
			return fmt.Errorf("cluster mode requires -state with -state-mode journal " +
				"(the journal is what gets replicated to standbys)")
		}
	}

	// SIGTERM/SIGINT begin a graceful drain rather than killing the
	// process: a verifier that dies mid-sweep silently stops attesting its
	// shard, which the paper ranks worse than failing loudly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stopSignals()

	opts := []verifier.Option{
		verifier.WithPollInterval(*pollInterval),
		verifier.WithContinueOnFailure(*continueOn),
		verifier.WithRetryPolicy(verifier.RetryPolicy{
			MaxAttempts:    *retryAttempts,
			InitialBackoff: *retryBackoff,
			MaxBackoff:     *retryMaxBackoff,
			RequestTimeout: *requestTimeout,
		}),
		verifier.WithCommsFaultBudget(*faultBudget),
		verifier.WithCircuitBreaker(verifier.BreakerConfig{
			Threshold:       *breakerThreshold,
			InitialInterval: *breakerInterval,
			MaxInterval:     *breakerMax,
		}),
		verifier.WithPollConcurrency(*pollConcurrency),
		verifier.WithVerifyWorkers(*verifyWorkers),
		verifier.WithSessionPolicy(*sessionEvery, *sessionTTL),
		verifier.WithBinaryWireFormat(*wireFormat == "binary"),
		verifier.WithBatchVerify(*cryptoWorkers),
	}

	// Every durable write goes through one counting filesystem so the
	// persist stats provider reports real Write/Sync syscall counts — the
	// number an operator needs to confirm group commit is actually
	// holding a sweep to a handful of fsyncs.
	iofs := store.NewCountingFS(store.OS())
	groupCommit := *persistBatch > 0
	var jopts []store.JournalOption
	if groupCommit {
		jopts = append(jopts, store.WithGroupCommit(*persistMaxDelay, *persistBatch))
	}

	// Chain of custody: one journaled keyring signs every evidence hop —
	// audit checkpoints, outbox revocations, rollout bundles, replication
	// frames. An empty ring mints its first key; -keyring-rotate starts an
	// overlap window (new key signs, old keys cosign) so evidence sealed
	// either side of the boundary verifies against the same ring.
	var keyring *dsse.Keyring
	if *keyringPath != "" {
		kr, err := dsse.OpenKeyring(iofs, *keyringPath, jopts...)
		if err != nil {
			return fmt.Errorf("opening keyring %s: %w", *keyringPath, err)
		}
		defer func() { _ = kr.Close() }()
		if !kr.CanSign() || *keyringRotate {
			kid, err := kr.Rotate()
			if err != nil {
				return fmt.Errorf("rotating keyring %s: %w", *keyringPath, err)
			}
			fmt.Printf("keyring %s: new signing key %s\n", *keyringPath, kid)
		} else {
			fmt.Printf("keyring %s: signing key %s\n", *keyringPath, kr.ActiveKeyID())
		}
		keyring = kr
	}

	// Audit: every sealed record is journaled and fsynced before the
	// verifier acknowledges it — the durable chain always ends at the
	// last recorded verdict. With -persist-batch the whole sweep commits
	// as one write vector under a single fsync (batch granularity, same
	// commit-before-ack ordering).
	if *auditPath != "" {
		jl, err := audit.OpenJournal(iofs, *auditPath, jopts...)
		if err != nil {
			return fmt.Errorf("opening audit journal: %w", err)
		}
		defer func() { _ = jl.Close() }()
		if n := jl.Recovered(); n > 0 {
			fmt.Printf("audit journal %s: recovered %d records\n", *auditPath, n)
		}
		if keyring != nil {
			// Every sweep's batch gains a signed checkpoint over the chain
			// head; verify-chain walks them offline.
			jl.SealCheckpoints(keyring)
		}
		opts = append(opts, verifier.WithAuditLog(jl.Log), verifier.WithAuditBatch(groupCommit))
	}

	var notifier *webhook.Notifier
	var outbox *webhook.Outbox
	if *webhookURL != "" {
		cfg := webhook.Config{
			Endpoints: []string{*webhookURL},
			Secret:    []byte(*webhookKey),
			Keyring:   keyring,
		}
		if *outboxPath != "" {
			ob, err := webhook.OpenOutbox(iofs, *outboxPath, jopts...)
			if err != nil {
				return fmt.Errorf("opening outbox: %w", err)
			}
			defer func() { _ = ob.Close() }()
			if n := ob.Len(); n > 0 {
				fmt.Printf("outbox %s: replaying %d pending notifications\n", *outboxPath, n)
			}
			cfg.Outbox = ob
			outbox = ob
		}
		notifier = webhook.New(cfg)
		defer notifier.Close()
		opts = append(opts, verifier.WithRevocationHandler(notifier.Handler()))
	} else {
		opts = append(opts, verifier.WithRevocationHandler(func(agentID string, f verifier.Failure) {
			log.Printf("REVOCATION agent=%s type=%s path=%s detail=%s", agentID, f.Type, f.Path, f.Detail)
		}))
	}
	v := verifier.New(*registrarURL, opts...)
	defer v.Close()

	// Profiling endpoint (off by default): -pprof serves the standard
	// net/http/pprof handlers on their own listener, kept away from the
	// management API so profiles are never exposed on the service port.
	if *pprofAddr != "" {
		go func() {
			// The pprof handlers register on http.DefaultServeMux at import.
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof listening on %s\n", *pprofAddr)
	}

	// persist is invoked after every sweep and reports how many rows it
	// made durable; it must not swallow errors — a verifier that silently
	// stops persisting re-trusts from scratch after its next crash. In
	// cluster mode the node journals agent rows itself (under the
	// replicated a/ prefix), so persist stays a no-op.
	persist := func() int { return 0 }
	// pm backs the "persist" stats provider: the persist-error counter
	// that used to live only in the process log, plus per-sweep persist
	// latency and the fsync counts that prove group commit is working.
	var pm struct {
		sync.Mutex
		sweeps    int
		errs      int
		lastRows  int
		lastDur   time.Duration
		lastSyncs uint64
	}
	logPersistErr := func(err error) {
		pm.Lock()
		pm.errs++
		n := pm.errs
		pm.Unlock()
		log.Printf("state persist error (%d total): %v", n, err)
	}

	var st *store.Store
	switch {
	case *statePath == "":
	case *stateMode == "journal":
		var err error
		st, err = store.Open(*statePath, store.WithStoreFS(iofs))
		if err != nil {
			return fmt.Errorf("opening state store %s: %w", *statePath, err)
		}
		defer func() { _ = st.Close() }()
		if clusterMode {
			break // cluster.NewNode restores and persists the agent rows
		}
		// Rows that failed to persist are retried next sweep.
		if err := restoreFromStore(v, st, *stateLenient); err != nil {
			return err
		}
		retryPut := map[string][]byte{}
		retryDel := map[string]bool{}
		persist = func() int {
			changed, removed, err := v.ExportDirty()
			if err != nil {
				// ExportDirty re-marked the drained IDs; next sweep retries.
				logPersistErr(err)
				return 0
			}
			for _, as := range changed {
				data, err := json.Marshal(as)
				if err != nil {
					logPersistErr(fmt.Errorf("encoding agent %s: %w", as.AgentID, err))
					continue
				}
				retryPut[as.AgentID] = data
				delete(retryDel, as.AgentID)
			}
			for _, id := range removed {
				retryDel[id] = true
				delete(retryPut, id)
			}
			if groupCommit {
				// The whole sweep's dirty rows in one journal write vector,
				// one fsync. Per-agent rows replay independently, so a torn
				// write recovering a prefix just means a smaller sweep; the
				// rest stays in the retry maps for the next one.
				batch := make([]store.KV, 0, len(retryPut)+len(retryDel))
				for id, data := range retryPut {
					batch = append(batch, store.KV{Key: id, Value: data})
				}
				for id := range retryDel {
					batch = append(batch, store.KV{Key: id, Delete: true})
				}
				if len(batch) == 0 {
					return 0
				}
				if err := st.PutBatch(batch); err != nil {
					logPersistErr(fmt.Errorf("journaling %d agent rows: %w", len(batch), err))
					return 0
				}
				clear(retryPut)
				clear(retryDel)
				return len(batch)
			}
			rows := 0
			for id, data := range retryPut {
				if err := st.Put(id, data); err != nil {
					logPersistErr(fmt.Errorf("journaling agent %s: %w", id, err))
					continue
				}
				delete(retryPut, id)
				rows++
			}
			for id := range retryDel {
				if err := st.Delete(id); err != nil {
					logPersistErr(fmt.Errorf("journaling removal of %s: %w", id, err))
					continue
				}
				delete(retryDel, id)
				rows++
			}
			return rows
		}
	default: // legacy full-snapshot file, now written atomically
		if data, err := os.ReadFile(*statePath); err == nil {
			var snap verifier.Snapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return fmt.Errorf("parsing state %s: %w", *statePath, err)
			}
			if err := restoreSnapshot(v, snap, *stateLenient); err != nil {
				return err
			}
			fmt.Printf("restored %d agents from %s\n", len(snap.Agents), *statePath)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("reading state %s: %w", *statePath, err)
		}
		persist = func() int {
			snap, err := v.ExportState()
			if err != nil {
				logPersistErr(err)
				return 0
			}
			data, err := json.Marshal(snap)
			if err != nil {
				logPersistErr(err)
				return 0
			}
			if err := store.WriteFileAtomic(iofs, *statePath, data); err != nil {
				logPersistErr(fmt.Errorf("writing %s: %w", *statePath, err))
				return 0
			}
			return len(snap.Agents)
		}
	}

	// persistSweep wraps persist with latency and fsync accounting for
	// the "persist" stats provider.
	persistSweep := func() {
		start := time.Now()
		syncs0 := iofs.Counters().Syncs
		rows := persist()
		dur := time.Since(start)
		syncs := iofs.Counters().Syncs - syncs0
		pm.Lock()
		pm.sweeps++
		pm.lastRows = rows
		pm.lastDur = dur
		pm.lastSyncs = syncs
		pm.Unlock()
	}

	// Cluster membership: the node restores its shard from the journal,
	// elects a coordinator over the peer set, and replicates this shard's
	// agent rows to its ring standbys.
	var node *cluster.Node
	if clusterMode {
		ids := make([]string, 0, len(peerAddrs))
		for id := range peerAddrs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var err error
		node, err = cluster.NewNode(cluster.Config{
			NodeID:         *nodeID,
			Peers:          ids,
			Replicas:       *replicas,
			HeartbeatEvery: *clusterHeartbeat,
			Verifier:       v,
			Store:          st,
			Keyring:        keyring,
			Transport: &cluster.HTTPTransport{
				Addrs:  peerAddrs,
				Client: &http.Client{Timeout: *clusterHeartbeat * 4},
			},
			Clock: simclock.Real{},
			Logf:  log.Printf,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		fmt.Printf("cluster node %s: %d peers, %d replica(s) per shard\n",
			*nodeID, len(ids), *replicas)
	}

	// Staged rollouts: the controller replaces blind UpdatePolicy swaps
	// with the gate→shadow→canary→promote pipeline. Constructed AFTER the
	// state restore so crash recovery re-applies the journaled stage to the
	// restored fleet, not an empty one.
	rolloutCfg := rollout.Config{
		Fleet:         v,
		ShadowRounds:  *rolloutShadowRounds,
		CanaryCount:   *rolloutCanary,
		CanaryRounds:  *rolloutCanaryRounds,
		TripThreshold: *rolloutTripwire,
		AutoRollback:  *rolloutAutoRollback,
		Keyring:       keyring,
		Logf:          log.Printf,
	}
	if node != nil {
		// Rollouts driven through this node span the whole cluster: the
		// fleet proxy routes per-agent calls to ring owners, canaries are
		// drawn from every shard, and generation numbers come from the
		// coordinator's majority-replicated sequence so no two shards ever
		// install the same number for different policies.
		rolloutCfg.Fleet = node.Fleet(ctx)
		rolloutCfg.CohortOf = node.OwnerOf
		rolloutCfg.Generations = node
	}
	if *rolloutState != "" {
		rst, err := store.Open(*rolloutState)
		if err != nil {
			return fmt.Errorf("opening rollout store %s: %w", *rolloutState, err)
		}
		defer func() { _ = rst.Close() }()
		rolloutCfg.Store = rst
	}
	if notifier != nil {
		// Rollout lifecycle events ride the same durable notification path
		// as revocations: journaled in the outbox (when configured) before
		// delivery, so a held window or a rollback is never silently lost.
		rolloutCfg.Notify = func(ev rollout.Event) {
			notifier.Notify(webhook.Notification{
				Type:   "rollout-" + ev.Type,
				Detail: fmt.Sprintf("generation %d: %s", ev.Generation, ev.Detail),
				Time:   ev.Time,
			})
		}
	}
	ctl, err := rollout.New(rolloutCfg)
	if err != nil {
		return fmt.Errorf("recovering rollout state: %w", err)
	}

	// Declarative fleet reconciler: operators submit desired-state specs
	// (keylime-tenant fleet-apply); the controller journals them before
	// any side effect and continuously drives the fleet toward them. In
	// cluster mode operations route through the fleet proxy to each
	// agent's ring owner, so one reconciler converges the whole cluster.
	var rec *reconcile.Controller
	if *reconcileOn {
		rcst, err := store.Open(*reconcileState, store.WithStoreFS(iofs))
		if err != nil {
			return fmt.Errorf("opening reconcile store %s: %w", *reconcileState, err)
		}
		defer func() { _ = rcst.Close() }()
		recCfg := reconcile.Config{
			Fleet:       v,
			Store:       rcst,
			Clock:       simclock.Real{},
			TenantQuota: *tenantQuota,
			TenantRate:  *tenantRate,
			Logf:        log.Printf,
		}
		if node != nil {
			recCfg.Fleet = node.Fleet(ctx)
		}
		if notifier != nil {
			// Lifecycle transitions ride the durable notification path like
			// rollout events. High-frequency per-op chatter (retries, rate
			// deferrals) stays in the bounded event log only.
			recCfg.Notify = func(ev reconcile.Event) {
				switch ev.Type {
				case reconcile.EventRetry, reconcile.EventRateDeferred, reconcile.EventQuotaDeferred:
					return
				}
				notifier.Notify(webhook.Notification{
					AgentID: ev.AgentID,
					Type:    "reconcile-" + ev.Type,
					Detail:  fmt.Sprintf("spec v%d: %s", ev.Version, ev.Detail),
					Time:    ev.Time,
				})
			}
		}
		rec, err = reconcile.New(recCfg)
		if err != nil {
			return fmt.Errorf("recovering reconcile state: %w", err)
		}
		v.RegisterStats("reconcile", func() any { return rec.Status() })
		fmt.Printf("reconcile: enabled (interval %v, tenant quota %d, tenant rate %.1f/s)\n",
			*reconcileInterval, *tenantQuota, *tenantRate)
	}

	// Operator observability (satellite): generation/rollout status and
	// undelivered-revocation counters via GET /v2/stats/{rollout,outbox}.
	v.RegisterStats("rollout", func() any { return ctl.Status() })
	if outbox != nil {
		v.RegisterStats("outbox", func() any { return outbox.Stats() })
	}
	// GET /v2/stats/persist: the persist-error counter plus per-sweep
	// persist latency and fsync counts. A healthy group-commit setup
	// shows last_sweep_fsyncs pinned at a handful no matter how many
	// rows the sweep persisted; a climbing errors counter means the
	// verifier will re-trust from scratch after its next crash. With a
	// journal -state, whole_puts/patched_puts say how many rows were
	// journaled whole and how many as a patch against their predecessor:
	// between policy updates nearly every put should be patched.
	v.RegisterStats("persist", func() any {
		c := iofs.Counters()
		var ss store.Stats
		if st != nil {
			ss = st.Stats()
		}
		pm.Lock()
		defer pm.Unlock()
		return map[string]any{
			"whole_puts":          ss.WholePuts,
			"patched_puts":        ss.PatchedPuts,
			"sweeps":              pm.sweeps,
			"errors":              pm.errs,
			"last_sweep_rows":     pm.lastRows,
			"last_sweep_ms":       float64(pm.lastDur.Microseconds()) / 1000,
			"last_sweep_fsyncs":   pm.lastSyncs,
			"total_fsyncs":        c.Syncs,
			"total_journal_bytes": c.WriteBytes,
			"group_commit":        groupCommit,
			"persist_batch":       *persistBatch,
		}
	})

	if node != nil {
		go node.Run(ctx) // heartbeats, elections, journal replication
	}
	reconcileDone := make(chan struct{})
	if rec != nil {
		go func() {
			defer close(reconcileDone)
			ticker := time.NewTicker(*reconcileInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if err := rec.Tick(); err != nil {
					log.Printf("reconcile tick: %v", err)
				}
			}
		}()
	} else {
		close(reconcileDone)
	}
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		ticker := time.NewTicker(*pollInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return // drained: the previous sweep fully finished
			case <-ticker.C:
			}
			// The sweep itself runs on the background context so a SIGTERM
			// arriving mid-sweep lets in-flight rounds finish (bounded by
			// the per-request timeout) instead of surfacing as comms faults.
			var stats verifier.PollStats
			if node != nil {
				stats = node.Sweep(context.Background())
			} else {
				stats = v.PollAll(context.Background())
			}
			if stats.Failed > 0 || stats.Degraded > 0 || stats.Halted > 0 || stats.Quarantined > 0 {
				log.Printf("poll sweep: attested=%d failed=%d degraded=%d halted=%d quarantined=%d",
					stats.Attested, stats.Failed, stats.Degraded, stats.Halted, stats.Quarantined)
			}
			persistSweep()
			// Advance any in-flight rollout on the counters this sweep
			// accumulated.
			if st, err := ctl.Tick(); err != nil {
				log.Printf("rollout tick: %v", err)
			} else if st.Stage != rollout.StageIdle {
				log.Printf("rollout: generation %d at stage %s (clean rounds %d/%d)",
					st.Generation, st.Stage, st.CleanRounds, st.RequiredRounds)
			}
		}
	}()

	fmt.Printf("keylime-verifier listening on %s (registrar %s, poll every %v, continue-on-failure=%v)\n",
		*listen, *registrarURL, *pollInterval, *continueOn)
	mux := http.NewServeMux()
	mux.Handle("/v2/rollout/", ctl.Handler())
	if rec != nil {
		mux.Handle("/v2/reconcile/", rec.Handler())
	}
	if node != nil {
		mux.Handle(cluster.RPCPath, cluster.RPCHandler(node.Handle))
		mux.HandleFunc("/v2/cluster/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(node.Status())
		})
	}
	mux.Handle("/", v.ManagementHandler())

	srv := &http.Server{Addr: *listen, Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting management/RPC work, let the
	// in-flight sweep finish, then flush everything durable. The deferred
	// closes (journal store, rollout store, outbox, notifier, audit
	// journal) run as this returns nil, so the process exits 0 with every
	// verdict and pending revocation on disk.
	log.Printf("shutdown: signal received, draining")
	stopSignals() // a second signal kills immediately
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: HTTP server: %v", err)
	}
	<-sweepDone
	<-reconcileDone
	if node != nil {
		node.Close()
	}
	log.Printf("shutdown: sweep drained, state flushed")
	return nil
}

// parsePeers parses the -peers flag: comma-separated id=base-url pairs.
func parsePeers(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=base-url)", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q in -peers", id)
		}
		out[id] = strings.TrimRight(addr, "/")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return out, nil
}

// restoreFromStore rebuilds the verifier's agent table from the journal
// store's rows.
func restoreFromStore(v *verifier.Verifier, st *store.Store, lenient bool) error {
	rows := st.All()
	if len(rows) == 0 {
		return nil
	}
	var snap verifier.Snapshot
	var badRows int
	for id, data := range rows {
		var as verifier.AgentState
		if err := json.Unmarshal(data, &as); err != nil {
			if !lenient {
				return fmt.Errorf("parsing state row %s: %w", id, err)
			}
			badRows++
			log.Printf("state restore: skipping undecodable row %s: %v", id, err)
			continue
		}
		snap.Agents = append(snap.Agents, as)
	}
	if err := restoreSnapshot(v, snap, lenient); err != nil {
		return err
	}
	fmt.Printf("restored %d agents from journal (%d rows skipped)\n",
		v.AgentCount(), badRows)
	return nil
}

// restoreSnapshot loads a snapshot strictly or leniently per the flag.
func restoreSnapshot(v *verifier.Verifier, snap verifier.Snapshot, lenient bool) error {
	if !lenient {
		if err := v.RestoreState(snap); err != nil {
			return fmt.Errorf("restoring state: %w", err)
		}
		return nil
	}
	skipped, err := v.RestoreStateLenient(snap)
	if err != nil {
		return fmt.Errorf("restoring state: %w", err)
	}
	for _, s := range skipped {
		log.Printf("state restore: skipped corrupt row: %v", s)
	}
	return nil
}
