package main

// stack.go is the benchmark's only door into the program under test: every
// repro/internal/... import of this package lives here (imports_test.go
// enforces it). It reproduces the wiring of cmd/keylime-verifier from the
// public functions of the internal packages — same options, same order of
// opens, same persist step — so when that composition moves, this one file
// is re-pointed and the workloads, metrics and arithmetic stay as they are.
// The rest of the package reaches the program through the aliases,
// constructors and methods declared here.

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/ima"
	"repro/internal/keylime/agent"
	"repro/internal/keylime/api"
	"repro/internal/keylime/audit"
	"repro/internal/keylime/cluster"
	"repro/internal/keylime/custody"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/httppool"
	"repro/internal/keylime/reconcile"
	"repro/internal/keylime/rollout"
	"repro/internal/keylime/session"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/keylime/webhook"
	"repro/internal/machine"
	"repro/internal/measuredboot"
	"repro/internal/mirror"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/tpm"
	"repro/internal/vfs"
	synth "repro/internal/workload"
)

// Types of the program the other files name.
type (
	Generator     = core.Generator
	Keyring       = dsse.Keyring
	FS            = store.FS
	File          = store.File
	PollStats     = verifier.PollStats
	Policy        = policy.RuntimePolicy
	FleetSpec     = reconcile.FleetSpec
	DayUpdate     = synth.DayUpdate
	UpdateReport  = core.UpdateReport
	CustodyReport = custody.Report
)

// Product defaults of cmd/keylime-verifier's flags, used verbatim.
const (
	flagPersistBatch    = 256
	flagPersistMaxDelay = 2 * time.Millisecond
	flagSessionEvery    = 16
	flagSessionTTL      = 10 * time.Minute
	flagShadowRounds    = 3
	flagCanaryCount     = 1
	flagCanaryRounds    = 2
	flagTripwire        = 1
	flagHeartbeat       = time.Second
)

// pollConcurrencyInEffect is what -poll-concurrency 0 resolves to.
func pollConcurrencyInEffect() int { return httppool.DefaultPerHost() }

const benchKernel = "5.15.0-100-generic"

var benchEpoch = time.Date(2024, 2, 26, 0, 0, 0, 0, time.UTC)

// originalExcludes is the exclude set experiments.NewDeployment stamps into
// generated policies.
func originalExcludes() []string { return []string{"/tmp/.*", "/var/log/.*", "/snap/.*"} }

// ---------------------------------------------------------------------------
// Fixture: the simulated distribution and hardware (not timed).

// host is one simulated machine with its agent served on loopback.
type host struct {
	Machine *machine.Machine
	Agent   *agent.Agent
	AKPub   []byte
	URL     string
	srv     *server
}

// fixture is everything a workload needs that is not the system under test:
// the archive, its mirror, and provisioned machines running agents.
type fixture struct {
	Seed      int64
	ScaleSeed int64 // the sub-seed whose base release has the nominal size
	Scale     synth.Scale
	Base      []mirror.Package
	Archive   *mirror.Archive
	Mirror    *mirror.Mirror
	Hosts     []*host
	Probe     *agentProbe // nil in untraced runs
	AgentNet  netCell
	bootExecs []string
}

// nominalBaseExecs is the executable count every seed's base release has.
// synth.BaseRelease draws package sizes from a heavy-tailed distribution,
// so seeds 1..40 give 329..726-line policies; the state row, the journal and
// the wire all scale with that, and a benchmark whose sizes move ±30 % with
// the seed cannot hold a 2 % bound. The fixture therefore walks sub-seeds
// derived from -seed until the release has exactly this many executables
// (ScaleSmall's mean: 60 packages × 8): contents, names and digests vary
// with the seed, the size does not.
const nominalBaseExecs = 480

// baseFor picks the synth.Scale for a benchmark seed and scale name, and
// returns it with the base release it draws.
func baseFor(seed int64, scale string) (synth.Scale, []mirror.Package, error) {
	if scale != "small" {
		return synth.Scale{}, nil, fmt.Errorf("unknown -scale %q (only \"small\" is runnable today)", scale)
	}
	sc := synth.ScaleSmall()
	for j := int64(0); j < 200000; j++ {
		sc.Seed = seed*1_000_003 + j
		base := synth.BaseRelease(sc, benchKernel)
		n := 0
		for _, p := range base {
			if !p.IsKernelImage() {
				n += len(p.ExecutableFiles())
			}
		}
		if n == nominalBaseExecs {
			return sc, base, nil
		}
	}
	return synth.Scale{}, nil, fmt.Errorf("no sub-seed of seed %d yields a %d-executable base release", seed, nominalBaseExecs)
}

// newFixture publishes the base release, syncs the mirror, and provisions
// nHosts machines (1024-bit EKs) that install the release, execute execAtBoot
// of its executables and serve an agent on loopback.
func newFixture(seed int64, scale string, nHosts, execAtBoot int, tr *tracer) (*fixture, error) {
	sc, base, err := baseFor(seed, scale)
	if err != nil {
		return nil, err
	}
	fx := &fixture{Seed: seed, ScaleSeed: sc.Seed, Scale: sc, Base: base}
	if tr != nil {
		fx.Probe = &agentProbe{tr: tr}
	}
	fx.Archive = mirror.NewArchive()
	if _, err := fx.Archive.Publish(benchEpoch.Add(-24*time.Hour), fx.Base...); err != nil {
		return nil, fmt.Errorf("publishing base release: %w", err)
	}
	fx.Mirror = mirror.NewMirror(fx.Archive)
	fx.Mirror.Sync(benchEpoch)

	for _, p := range fx.Base {
		for _, f := range p.ExecutableFiles() {
			if strings.HasPrefix(f.Path, "/boot/") || strings.HasPrefix(f.Path, "/usr/lib/modules/") {
				continue
			}
			fx.bootExecs = append(fx.bootExecs, f.Path)
		}
	}
	sort.Strings(fx.bootExecs)
	if len(fx.bootExecs) > execAtBoot {
		fx.bootExecs = fx.bootExecs[:execAtBoot]
	}

	ca, err := tpm.NewManufacturerCA(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("creating manufacturer CA: %w", err)
	}
	for i := 0; i < nHosts; i++ {
		h, err := fx.newHost(ca)
		if err != nil {
			fx.Close()
			return nil, fmt.Errorf("provisioning host %d: %w", i, err)
		}
		fx.Hosts = append(fx.Hosts, h)
	}
	return fx, nil
}

func (fx *fixture) newHost(ca *tpm.ManufacturerCA) (*host, error) {
	m, err := machine.New(ca,
		machine.WithTPMOptions(tpm.WithEKBits(1024)),
		machine.WithKernel(benchKernel))
	if err != nil {
		return nil, err
	}
	if err := m.InstallRelease(fx.Mirror.Release()); err != nil {
		return nil, err
	}
	if err := attacks.InstallToolchain(m); err != nil {
		return nil, err
	}
	akPub, err := m.TPM().CreateAK()
	if err != nil {
		return nil, err
	}
	h := &host{Machine: m, Agent: agent.New(m), AKPub: akPub}
	if err := h.boot(fx.bootExecs); err != nil {
		return nil, err
	}
	handler := h.Agent.Handler()
	if fx.Probe != nil {
		handler = fx.Probe.wrap(handler)
	}
	h.srv, err = serve(handler, &fx.AgentNet)
	if err != nil {
		return nil, err
	}
	h.URL = h.srv.URL
	return h, nil
}

// boot executes the fixture's boot-time executables.
func (h *host) boot(execs []string) error {
	for _, p := range execs {
		if err := h.Machine.Exec(p); err != nil {
			return fmt.Errorf("boot exec %s: %w", p, err)
		}
	}
	return nil
}

// LogLen is the machine's IMA measurement-list length: the frontier a
// verifier that has caught up with it must hold.
func (h *host) LogLen() int { return h.Machine.IMA().Len() }

// Tamper writes and executes a binary no policy lists.
func (h *host) Tamper(n int) error {
	p := fmt.Sprintf("/usr/local/bin/implant-%04d", n)
	if err := h.Machine.WriteFile(p, []byte(fmt.Sprintf("\x7fELF implant %d", n)), vfs.ModeExecutable); err != nil {
		return err
	}
	return h.Machine.Exec(p)
}

// Reboot resets the machine's measurement list and replays the boot-time
// executables, so its next enrolment starts clean.
func (h *host) Reboot(execs []string) error {
	if err := h.Machine.Reboot(); err != nil {
		return err
	}
	return h.boot(execs)
}

// Close stops every agent server.
func (fx *fixture) Close() {
	for _, h := range fx.Hosts {
		if h.srv != nil {
			h.srv.Close()
		}
	}
}

// generatePolicy builds the initial runtime policy exactly as
// experiments.NewDeployment does: the dynamic generator over the mirror,
// merged with a snapshot of the first machine's on-disk executables (the
// toolchain stand-ins live outside the mirror). Part of set-up, so timed.
func (fx *fixture) generatePolicy() (*core.Generator, *Policy, *Policy, error) {
	gen := core.NewGenerator(fx.Mirror, core.WithExcludes(originalExcludes()),
		core.WithScrubSNAPPrefixes(true))
	pol, _, err := gen.GenerateInitial(fx.Mirror.LastSync(), benchKernel)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("generating initial policy: %w", err)
	}
	extras, err := core.SnapshotPolicy(fx.Hosts[0].Machine.FS(), originalExcludes())
	if err != nil {
		return nil, nil, nil, err
	}
	// Only what the mirror does not ship is an extra; the snapshot of a
	// fully installed machine would otherwise re-add every package file.
	for _, p := range extras.Paths() {
		if pol.Has(p) {
			extras.Remove(p)
		}
	}
	pol.Merge(extras)
	return gen, pol, extras, nil
}

// agentID names the i-th agent of a workload, in the shape fleetFixture uses.
func agentID(prefix string, i int) string {
	return fmt.Sprintf("%s-%05d-4a97-9ef7-75bd81c0f1ee", prefix, i)
}

// ---------------------------------------------------------------------------
// Update stream (update_day).

// dayStream is the untimed upstream side of update_day: a synth.Stream
// whose day sequence was chosen, like the base release, to have the nominal
// size whatever the seed.
type dayStream struct {
	Seed   int64
	stream *synth.Stream
	fx     *fixture
	day    int
}

// streamConfig sizes the daily updates to ScaleSmall: about one package a
// day, as large as a base package, no kernels (a kernel needs a reboot
// window, which is its own workload). Every new version lands its files on
// fresh paths, so the policy grows by about what the day published: ~7 lines
// a day on a ~490-line policy. The paper's 16.5 packages × 77 executables a
// day belongs to ScalePaper's 324k-line policy (0.4 % a day).
func streamConfig(sc synth.Scale, seed int64) synth.StreamConfig {
	return synth.StreamConfig{
		Seed:                  seed,
		MeanPkgsPerDay:        1,
		PkgsCV:                0.3,
		HighPriorityFraction:  0.055,
		MeanExecPerUpdatedPkg: sc.MeanExecPerPkg,
		NewPackageFraction:    0.15,
		KernelEveryNDays:      0,
		Scale:                 sc,
	}
}

// Nominal size of an update_day run: packages and executables published per
// day. The policy grows by about what is published (new versions land on
// fresh paths), the state rows carry the policy, so the bytes a run journals
// follow the running total of executables, summed over the days; the new
// measurements a post-update quote carries follow the package count. A
// candidate stream is accepted when its totals and that sum are within
// tolerance of the nominal ones — otherwise disk_bytes_per_round moved 4 %
// between seeds.
const (
	nominalPkgsPerDay  = 0.85
	nominalExecsPerDay = 6.8
	streamPkgsTol      = 0.03
	streamTotalTol     = 0.02
	streamSumTol       = 0.01
)

// DayStream picks the stream sub-seed for a run of days days and returns the
// stream, nothing published yet.
func (fx *fixture) DayStream(days int) (*dayStream, error) {
	wantTotal := nominalExecsPerDay * float64(days)
	wantSum := nominalExecsPerDay * float64(days) * float64(days+1) / 2
	for j := int64(0); j < 200000; j++ {
		seed := fx.Seed*1_000_003 + 500_000 + j
		scratch := mirror.NewArchive()
		if _, err := scratch.Publish(benchEpoch.Add(-24*time.Hour), fx.Base...); err != nil {
			return nil, err
		}
		st := synth.NewStream(scratch, fx.Base, streamConfig(fx.Scale, seed))
		pkgs, total, sum := 0, 0, 0
		for d := 1; d <= days; d++ {
			upd, err := st.PublishDay(benchEpoch.Add(time.Duration(d) * 24 * time.Hour))
			if err != nil {
				return nil, err
			}
			pkgs += len(upd.Published)
			for _, p := range upd.Published {
				total += len(p.ExecutableFiles())
			}
			sum += total
		}
		if within(float64(pkgs), nominalPkgsPerDay*float64(days), streamPkgsTol) &&
			within(float64(total), wantTotal, streamTotalTol) && within(float64(sum), wantSum, streamSumTol) {
			return &dayStream{
				Seed:   seed,
				fx:     fx,
				stream: synth.NewStream(fx.Archive, fx.Base, streamConfig(fx.Scale, seed)),
			}, nil
		}
	}
	return nil, fmt.Errorf("no stream sub-seed of seed %d has the nominal size over %d days", fx.Seed, days)
}

func within(v, want, tol float64) bool { return v >= want*(1-tol) && v <= want*(1+tol) }

// DayTime is the simulated instant of the given day's 05:00 update window.
func dayTime(day int) time.Time {
	return benchEpoch.Add(time.Duration(day)*24*time.Hour + 5*time.Hour)
}

// Publish draws and publishes the next day upstream (03:00 that day).
func (s *dayStream) Publish() (DayUpdate, error) {
	s.day++
	return s.stream.PublishDay(dayTime(s.day).Add(-2 * time.Hour))
}

// Day is the number of days published so far.
func (s *dayStream) Day() int { return s.day }

// Install applies the day's packages to every host from the mirror and
// executes up to perPkg freshly updated executables of each, the benign
// activity that surfaces an update-caused policy mismatch.
func (s *dayStream) Install(upd DayUpdate, perPkg int) (newEntries int, err error) {
	for _, h := range s.fx.Hosts {
		before := h.LogLen()
		for _, p := range upd.Published {
			mp, err := s.fx.Mirror.Package(p.Name)
			if err != nil {
				return 0, fmt.Errorf("update from mirror: %w", err)
			}
			if err := h.Machine.InstallPackage(mp); err != nil {
				return 0, err
			}
			ran := 0
			for _, f := range mp.ExecutableFiles() {
				if ran >= perPkg {
					break
				}
				if err := h.Machine.Exec(f.Path); err != nil {
					return 0, fmt.Errorf("executing updated %s: %w", f.Path, err)
				}
				ran++
			}
		}
		newEntries += h.LogLen() - before
	}
	return newEntries, nil
}

// dayDigest fingerprints a published day for the determinism test.
func dayDigest(upd DayUpdate) string {
	var b strings.Builder
	for _, p := range upd.Published {
		fmt.Fprintf(&b, "%s=%s:%d;", p.Name, p.Version, len(p.Files))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Single-node production stack (steady_sessions, update_day, restart_recover).

// nodeConfig places one verifier's durable components.
type nodeConfig struct {
	FS   *benchFS
	Dir  string
	Name string // artifact prefix ("" single node, "n1-" in a cluster)
	// Tracer, when set, spans the opens, the persist step and the restore,
	// and lays a tracing RoundTripper over the verifier's pooled transport.
	Tracer *tracer
	// OnRevocation receives every revocation the verifier raises.
	OnRevocation func(agentID, failureType, path string)
	// Webhook, when set, wires a notifier with a sealed durable outbox
	// delivering to this endpoint (fleet_churn).
	Webhook string
	// Cluster runs the node as a cluster member: the cluster layer restores
	// and persists agent rows itself, so the local persist step is a no-op.
	Cluster bool
}

func (c nodeConfig) path(name string) string { return filepath.Join(c.Dir, c.Name+name) }

// node is one verifier process's worth of components, opened in
// cmd/keylime-verifier's order: keyring, audit journal, notifier, verifier,
// state store (+ restore), rollout store, rollout controller.
type node struct {
	cfg nodeConfig

	Keyring   *dsse.Keyring
	Audit     *audit.JournalLog
	Outbox    *webhook.Outbox
	Notifier  *webhook.Notifier
	V         *verifier.Verifier
	State     *store.Store
	Rollout   *rollout.Controller
	rstore    *store.Store
	Transport *tracingTransport

	retryPut map[string][]byte
	retryDel map[string]bool

	// Persist-step observations (traced runs read them).
	RowsPersisted int
	RowBytes      int64
	Restored      int
}

func journalOpts() []store.JournalOption {
	return []store.JournalOption{store.WithGroupCommit(flagPersistMaxDelay, flagPersistBatch)}
}

// openNode opens (or reopens) every durable component under cfg.Dir and
// restores the verifier from the state store.
func openNode(ctx context.Context, cfg nodeConfig) (n *node, err error) {
	n = &node{cfg: cfg, retryPut: map[string][]byte{}, retryDel: map[string]bool{}}
	defer func() {
		if err != nil {
			n.Close()
			n = nil
		}
	}()
	tr := cfg.Tracer
	jopts := journalOpts()

	if err := tr.do(ctx, "dsse.keyring_open", func(context.Context) error {
		kr, err := dsse.OpenKeyring(cfg.FS, cfg.path("keyring.wal"), jopts...)
		if err != nil {
			return fmt.Errorf("opening keyring: %w", err)
		}
		n.Keyring = kr
		if !kr.CanSign() {
			if _, err := kr.Rotate(); err != nil {
				return fmt.Errorf("minting first signing key: %w", err)
			}
		}
		return nil
	}); err != nil {
		return n, err
	}

	if err := tr.do(ctx, "audit.open", func(context.Context) error {
		jl, err := audit.OpenJournal(cfg.FS, cfg.path("audit.wal"), jopts...)
		if err != nil {
			return fmt.Errorf("opening audit journal: %w", err)
		}
		jl.SealCheckpoints(n.Keyring)
		n.Audit = jl
		return nil
	}); err != nil {
		return n, err
	}

	opts := []verifier.Option{
		verifier.WithPollInterval(10 * time.Second),
		verifier.WithContinueOnFailure(false),
		verifier.WithRetryPolicy(verifier.RetryPolicy{
			MaxAttempts:    3,
			InitialBackoff: 200 * time.Millisecond,
			MaxBackoff:     5 * time.Second,
			RequestTimeout: 30 * time.Second,
		}),
		verifier.WithCommsFaultBudget(3),
		verifier.WithCircuitBreaker(verifier.BreakerConfig{
			Threshold: 5, InitialInterval: time.Minute, MaxInterval: 15 * time.Minute,
		}),
		verifier.WithPollConcurrency(0),
		verifier.WithVerifyWorkers(0),
		verifier.WithSessionPolicy(flagSessionEvery, flagSessionTTL),
		verifier.WithBinaryWireFormat(true),
		verifier.WithBatchVerify(0),
		verifier.WithAuditLog(n.Audit.Log),
		verifier.WithAuditBatch(true),
	}
	if tr != nil {
		// Same pooled transport the verifier builds for itself, with the
		// span-recording RoundTripper on top. Untraced runs inject nothing.
		n.Transport = &tracingTransport{base: httppool.NewTransport(pollConcurrencyInEffect()), tr: tr}
		opts = append(opts, verifier.WithHTTPClient(&http.Client{Transport: n.Transport}))
	}

	revoked := func(agentID string, f verifier.Failure) {
		if cfg.OnRevocation != nil {
			cfg.OnRevocation(agentID, f.Type.String(), f.Path)
		}
	}
	if cfg.Webhook != "" {
		ob, err := webhook.OpenOutbox(cfg.FS, cfg.path("outbox.wal"), jopts...)
		if err != nil {
			return n, fmt.Errorf("opening outbox: %w", err)
		}
		n.Outbox = ob
		n.Notifier = webhook.New(webhook.Config{
			Endpoints: []string{cfg.Webhook},
			Keyring:   n.Keyring,
			Outbox:    ob,
			Logf:      func(string, ...any) {},
		})
		deliver := n.Notifier.Handler()
		opts = append(opts, verifier.WithRevocationHandler(func(agentID string, f verifier.Failure) {
			revoked(agentID, f)
			deliver(agentID, f)
		}))
	} else {
		opts = append(opts, verifier.WithRevocationHandler(revoked))
	}
	n.V = verifier.New("", opts...)

	if err := tr.do(ctx, "store.open", func(context.Context) error {
		st, err := store.Open(cfg.path("state"), store.WithStoreFS(cfg.FS))
		if err != nil {
			return fmt.Errorf("opening state store: %w", err)
		}
		n.State = st
		return nil
	}); err != nil {
		return n, err
	}
	if !cfg.Cluster {
		if err := tr.do(ctx, "verifier.restore", func(context.Context) error { return n.restore() }); err != nil {
			return n, err
		}
	}

	if err := tr.do(ctx, "rollout.recover", func(context.Context) error {
		rst, err := store.Open(cfg.path("rollout"), store.WithStoreFS(cfg.FS))
		if err != nil {
			return fmt.Errorf("opening rollout store: %w", err)
		}
		n.rstore = rst
		if cfg.Cluster {
			return nil // the cluster layer builds the controller over its fleet proxy
		}
		n.Rollout, err = rollout.New(n.rolloutConfig(n.V))
		if err != nil {
			return fmt.Errorf("recovering rollout state: %w", err)
		}
		return nil
	}); err != nil {
		return n, err
	}
	return n, nil
}

func (n *node) rolloutConfig(fleet rollout.Fleet) rollout.Config {
	cfg := rollout.Config{
		Fleet:         fleet,
		Store:         n.rstore,
		ShadowRounds:  flagShadowRounds,
		CanaryCount:   flagCanaryCount,
		CanaryRounds:  flagCanaryRounds,
		TripThreshold: flagTripwire,
		AutoRollback:  true,
		Keyring:       n.Keyring,
	}
	if n.Notifier != nil {
		notifier := n.Notifier
		cfg.Notify = func(ev rollout.Event) {
			notifier.Notify(webhook.Notification{
				Type:   "rollout-" + ev.Type,
				Detail: fmt.Sprintf("generation %d: %s", ev.Generation, ev.Detail),
				Time:   ev.Time,
			})
		}
	}
	return cfg
}

// restore rebuilds the verifier's agent table from the state store's rows
// (cmd/keylime-verifier's restoreFromStore, strict mode).
func (n *node) restore() error {
	rows := n.State.All()
	n.Restored = len(rows)
	if len(rows) == 0 {
		return nil
	}
	var snap verifier.Snapshot
	for id, data := range rows {
		var as verifier.AgentState
		if err := json.Unmarshal(data, &as); err != nil {
			return fmt.Errorf("parsing state row %s: %w", id, err)
		}
		snap.Agents = append(snap.Agents, as)
	}
	if err := n.V.RestoreState(snap); err != nil {
		return fmt.Errorf("restoring state: %w", err)
	}
	return nil
}

// Enroll adds an agent served by h under pol.
func (n *node) Enroll(id string, h *host, pol *Policy) error {
	return n.V.AddAgentWithAK(id, h.URL, h.AKPub, pol)
}

// Sweep is one PollAll.
func (n *node) Sweep(ctx context.Context) PollStats {
	ctx, end := n.cfg.Tracer.begin(ctx, "verifier.poll_all")
	defer end()
	return n.V.PollAll(ctx)
}

// Persist is cmd/keylime-verifier's group-commit persist step:
// ExportDirty → json.Marshal per row → one PutBatch. Rows that fail to
// persist stay in the retry maps; any error is returned, because a
// benchmark run must not limp on.
func (n *node) Persist(ctx context.Context) error {
	tr := n.cfg.Tracer
	var changed []verifier.AgentState
	var removed []string
	if err := tr.do(ctx, "verifier.export_dirty", func(context.Context) (err error) {
		changed, removed, err = n.V.ExportDirty()
		return err
	}); err != nil {
		return fmt.Errorf("exporting dirty rows: %w", err)
	}
	if err := tr.do(ctx, "verifier.row_marshal", func(context.Context) error {
		for _, as := range changed {
			data, err := json.Marshal(as)
			if err != nil {
				return fmt.Errorf("encoding agent %s: %w", as.AgentID, err)
			}
			n.retryPut[as.AgentID] = data
			delete(n.retryDel, as.AgentID)
			n.RowBytes += int64(len(data))
		}
		return nil
	}); err != nil {
		return err
	}
	for _, id := range removed {
		n.retryDel[id] = true
		delete(n.retryPut, id)
	}
	batch := make([]store.KV, 0, len(n.retryPut)+len(n.retryDel))
	for id, data := range n.retryPut {
		batch = append(batch, store.KV{Key: id, Value: data})
	}
	for id := range n.retryDel {
		batch = append(batch, store.KV{Key: id, Delete: true})
	}
	if len(batch) == 0 {
		return nil
	}
	if err := tr.do(ctx, "store.put_batch", func(context.Context) error { return n.State.PutBatch(batch) }); err != nil {
		return fmt.Errorf("journaling %d agent rows: %w", len(batch), err)
	}
	n.RowsPersisted += len(batch)
	clear(n.retryPut)
	clear(n.retryDel)
	return nil
}

// Frontiers returns every enrolled agent's persisted log frontier.
func (n *node) Frontiers() (map[string]int, error) {
	snap, err := n.V.ExportState()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(snap.Agents))
	for _, a := range snap.Agents {
		out[a.AgentID] = a.NextOffset
	}
	return out, nil
}

// Compactions reports the state store's snapshot compactions so far.
func (n *node) Compactions() int { return n.State.Stats().Compactions }

// AuditPath is the node's audit journal file.
func (n *node) AuditPath() string { return n.cfg.path("audit.wal") }

// Close gracefully closes every durable component, in reverse open order.
func (n *node) Close() {
	if n == nil {
		return
	}
	if n.Notifier != nil {
		n.Notifier.Close()
	}
	if n.V != nil {
		n.V.Close()
	}
	// Every append was fsynced when it was acknowledged, so a Close error
	// loses nothing durable.
	if n.rstore != nil {
		_ = n.rstore.Close()
	}
	if n.State != nil {
		_ = n.State.Close()
	}
	if n.Outbox != nil {
		_ = n.Outbox.Close()
	}
	if n.Audit != nil {
		_ = n.Audit.Close()
	}
	if n.Keyring != nil {
		_ = n.Keyring.Close()
	}
}

// Verify walks the node's chain-of-custody artifacts offline.
func (n *node) Verify() (rep *CustodyReport, records int, err error) {
	cfg := custody.Config{
		AuditLog:     n.cfg.path("audit.wal"),
		RolloutState: n.cfg.path("rollout"),
		Keyring:      n.Keyring,
		FS:           n.cfg.FS,
	}
	if n.Outbox != nil {
		cfg.Outbox = n.cfg.path("outbox.wal")
	}
	rep, err = custody.Verify(cfg)
	if err != nil {
		return nil, 0, err
	}
	if rep.Audit != nil {
		records += rep.Audit.Records + rep.Audit.Checkpoints
	}
	if rep.Outbox != nil {
		records += rep.Outbox.Records
	}
	return rep, records, nil
}

// auditCheckpoints reads the sealed-checkpoint count off a custody report.
func auditCheckpoints(rep *CustodyReport) int {
	if rep == nil || rep.Audit == nil {
		return 0
	}
	return rep.Audit.Checkpoints
}

// ---------------------------------------------------------------------------
// Rollout driving (update_day).

// BeginRollout starts a staged rollout of pol.
func (n *node) BeginRollout(ctx context.Context, pol *Policy) error {
	return n.cfg.Tracer.do(ctx, "rollout.begin", func(context.Context) error {
		_, err := n.Rollout.Begin(pol)
		return err
	})
}

// TickRollout advances the rollout and reports whether it is idle again and
// how many promotions and rollbacks the controller has completed.
func (n *node) TickRollout(ctx context.Context) (idle bool, promotions, rollbacks int, err error) {
	err = n.cfg.Tracer.do(ctx, "rollout.tick", func(context.Context) error {
		st, err := n.Rollout.Tick()
		idle = st.Stage == rollout.StageIdle
		promotions, rollbacks = st.Stats.Promotions, st.Stats.Rollbacks
		return err
	})
	return idle, promotions, rollbacks, err
}

// RolloutCounts reads the controller's cumulative promotions and rollbacks.
func (n *node) RolloutCounts() (promotions, rollbacks int) {
	st := n.Rollout.Status().Stats
	return st.Promotions, st.Rollbacks
}

// dayPolicy runs the generator's update for a day and returns the candidate
// (generator policy + local extras) with the day's report.
func dayPolicy(ctx context.Context, tr *tracer, gen *core.Generator, extras *Policy, at time.Time) (*Policy, UpdateReport, error) {
	var cand *Policy
	var rep UpdateReport
	err := tr.do(ctx, "core.update", func(context.Context) (err error) {
		cand, rep, err = gen.Update(at, benchKernel)
		if err != nil {
			return err
		}
		cand.Merge(extras)
		return nil
	})
	return cand, rep, err
}

// dedupAfterUpdate drops the digests the day's update superseded.
func dedupAfterUpdate(gen *core.Generator) error {
	_, err := gen.DedupAfterUpdate()
	return err
}

// mirrorSyncProbe times a sync of a second mirror over the same archive: the
// generator's own Mirror.Sync happens inside Generator.Update and cannot be
// spanned from outside.
type mirrorSyncProbe struct{ m *mirror.Mirror }

func newMirrorSyncProbe(fx *fixture) *mirrorSyncProbe {
	m := mirror.NewMirror(fx.Archive)
	m.Sync(fx.Mirror.LastSync())
	return &mirrorSyncProbe{m: m}
}

func (p *mirrorSyncProbe) Sync(at time.Time) time.Duration {
	start := time.Now()
	p.m.Sync(at)
	return time.Since(start)
}

// ---------------------------------------------------------------------------
// Two-node cluster with reconciler and webhook (fleet_churn).

// clusterNode is a node plus its cluster membership and RPC endpoint.
type clusterNode struct {
	*node
	ID     string
	Member *cluster.Node
	rpc    *server
}

// clusterStack is the fleet_churn composition: two verifier nodes in one
// process, each with its own keyring, audit journal, state store, outbox and
// notifier; the reconciler runs against the first node's fleet proxy.
type clusterStack struct {
	Nodes     []*clusterNode
	Clock     *simclock.Simulated
	Reconcile *reconcile.Controller
	recStore  *store.Store
	RPCNet    netCell
	tr        *tracer
}

// openCluster builds the two-node cluster under dir and ticks it until a
// coordinator holds a committed assignment over both members.
func openCluster(ctx context.Context, fsys *benchFS, dir, webhookURL string, tr *tracer,
	onRevocation func(agentID, failureType, path string)) (cs *clusterStack, err error) {
	cs = &clusterStack{
		Clock: simclock.NewSimulated(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)),
		tr:    tr,
	}
	defer func() {
		if err != nil {
			cs.Close()
			cs = nil
		}
	}()
	ids := []string{"n1", "n2"}
	addrs := map[string]string{}
	handlers := map[string]*swapHandler{}
	for _, id := range ids {
		sh := &swapHandler{}
		srv, err := serve(sh, &cs.RPCNet)
		if err != nil {
			return cs, err
		}
		handlers[id] = sh
		addrs[id] = srv.URL
		cs.Nodes = append(cs.Nodes, &clusterNode{ID: id, rpc: srv})
	}
	for _, cn := range cs.Nodes {
		cn.node, err = openNode(ctx, nodeConfig{
			FS: fsys, Dir: dir, Name: cn.ID + "-", Tracer: tr,
			OnRevocation: onRevocation, Webhook: webhookURL, Cluster: true,
		})
		if err != nil {
			return cs, fmt.Errorf("opening node %s: %w", cn.ID, err)
		}
	}
	// Peers trust each other's replication seals by public key.
	for _, a := range cs.Nodes {
		for _, b := range cs.Nodes {
			if a == b {
				continue
			}
			for _, pub := range b.Keyring.PublicKeys() {
				a.Keyring.AddVerifier(pub)
			}
		}
	}
	for _, cn := range cs.Nodes {
		cn.Member, err = cluster.NewNode(cluster.Config{
			NodeID:         cn.ID,
			Peers:          ids,
			Replicas:       1,
			HeartbeatEvery: flagHeartbeat,
			Verifier:       cn.V,
			Store:          cn.State,
			Keyring:        cn.Keyring,
			Transport: &cluster.HTTPTransport{
				Addrs:  addrs,
				Client: &http.Client{Timeout: flagHeartbeat * 4},
			},
			Clock: cs.Clock,
		})
		if err != nil {
			return cs, fmt.Errorf("joining node %s: %w", cn.ID, err)
		}
		mux := http.NewServeMux()
		mux.Handle(cluster.RPCPath, cluster.RPCHandler(cn.Member.Handle))
		handlers[cn.ID].set(mux)

		rcfg := cn.rolloutConfig(cn.Member.Fleet(ctx))
		rcfg.CohortOf = cn.Member.OwnerOf
		rcfg.Generations = cn.Member
		cn.Rollout, err = rollout.New(rcfg)
		if err != nil {
			return cs, fmt.Errorf("recovering rollout state on %s: %w", cn.ID, err)
		}
	}
	for i := 0; i < 120 && !cs.converged(); i++ {
		cs.Tick(ctx)
	}
	if !cs.converged() {
		return cs, errors.New("cluster did not elect a coordinator over both nodes")
	}

	first := cs.Nodes[0]
	cs.recStore, err = store.Open(filepath.Join(dir, "reconcile"), store.WithStoreFS(fsys))
	if err != nil {
		return cs, fmt.Errorf("opening reconcile store: %w", err)
	}
	notifier := first.Notifier
	cs.Reconcile, err = reconcile.New(reconcile.Config{
		Fleet: first.Member.Fleet(ctx),
		Store: cs.recStore,
		Clock: cs.Clock,
		Notify: func(ev reconcile.Event) {
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
		},
	})
	if err != nil {
		return cs, fmt.Errorf("recovering reconcile state: %w", err)
	}
	return cs, nil
}

// converged reports one leader whose committed assignment covers both
// nodes, with every node agreeing and no handoff pending.
func (cs *clusterStack) converged() bool {
	var lead *cluster.NodeStatus
	for _, cn := range cs.Nodes {
		if cn.Member == nil {
			return false
		}
		st := cn.Member.Status()
		if st.Role == cluster.RoleLeader {
			if lead != nil {
				return false
			}
			s := st
			lead = &s
		}
	}
	if lead == nil || len(lead.Assign.Members) != len(cs.Nodes) || lead.PendingEpoch > lead.Assign.Epoch {
		return false
	}
	for _, cn := range cs.Nodes {
		st := cn.Member.Status()
		if st.Assign.Epoch != lead.Assign.Epoch || st.PendingEpoch > st.Assign.Epoch {
			return false
		}
	}
	return true
}

// Tick advances the simulated clock one heartbeat and ticks every node in
// ID order: heartbeats, liveness and journal replication.
func (cs *clusterStack) Tick(ctx context.Context) {
	cs.Clock.Advance(flagHeartbeat)
	for _, cn := range cs.Nodes {
		if cn.Member == nil {
			continue
		}
		cctx, end := cs.tr.begin(ctx, "cluster.tick")
		cn.Member.Tick(cctx)
		end()
	}
}

// Sweep runs one ownership-scoped sweep (PollAll + journaled rows) on every
// node and returns the summed stats.
func (cs *clusterStack) Sweep(ctx context.Context) PollStats {
	var total PollStats
	for _, cn := range cs.Nodes {
		cctx, end := cs.tr.begin(ctx, "cluster.sweep")
		st := cn.Member.Sweep(cctx)
		end()
		total.Attested += st.Attested
		total.Failed += st.Failed
		total.Degraded += st.Degraded
		total.Halted += st.Halted
		total.Quarantined += st.Quarantined
		total.Removed += st.Removed
		total.NotOwned += st.NotOwned
		total.Errors += st.Errors
		total.SessionRounds += st.SessionRounds
		total.FullQuoteRounds += st.FullQuoteRounds
		total.ForcedUpgrades += st.ForcedUpgrades
		total.AuditBatched += st.AuditBatched
		total.AuditFlushErrs += st.AuditFlushErrs
		if _, _, _, err := cn.TickRollout(cctx); err != nil {
			total.Errors++
		}
	}
	return total
}

// Apply journals the next desired fleet.
func (cs *clusterStack) Apply(ctx context.Context, spec *FleetSpec) error {
	return cs.tr.do(ctx, "reconcile.apply", func(context.Context) error {
		_, _, err := cs.Reconcile.Apply(spec)
		return err
	})
}

// Converge ticks the reconciler until the fleet matches the spec and
// returns the ticks it took.
func (cs *clusterStack) Converge(ctx context.Context) (int, error) {
	for ticks := 1; ticks <= 20; ticks++ {
		if err := cs.tr.do(ctx, "reconcile.tick", func(context.Context) error { return cs.Reconcile.Tick() }); err != nil {
			return ticks, fmt.Errorf("reconcile tick: %w", err)
		}
		if st := cs.Reconcile.Status(); st.Converged {
			if len(st.Degraded) > 0 {
				return ticks, fmt.Errorf("reconciler parked %d agents degraded", len(st.Degraded))
			}
			return ticks, nil
		}
	}
	return 20, fmt.Errorf("reconciler did not converge: %+v", cs.Reconcile.Status().Pending)
}

// ReconcileOps is the cumulative count of lifecycle operations executed.
func (cs *clusterStack) ReconcileOps() int {
	c := cs.Reconcile.Status().Counters
	return int(c.Enrolls + c.Withdraws + c.Updates + c.Adopts)
}

// Owned is the number of agents enrolled across the cluster.
func (cs *clusterStack) Owned() int {
	total := 0
	for _, cn := range cs.Nodes {
		total += cn.V.AgentCount()
	}
	return total
}

// ReplicationLag is how many of each node's agent rows its standby does not
// hold an identical replica of.
func (cs *clusterStack) ReplicationLag() int {
	lag := 0
	for i, cn := range cs.Nodes {
		standby := cs.Nodes[(i+1)%len(cs.Nodes)]
		replica := standby.State.All()
		for k, v := range cn.State.All() {
			if !strings.HasPrefix(k, "a/") {
				continue
			}
			if r, ok := replica["r/"+cn.ID+"/"+k]; !ok || string(r) != string(v) {
				lag++
			}
		}
	}
	return lag
}

// SealRejects sums the replication frames rejected for a bad seal.
func (cs *clusterStack) SealRejects() int {
	total := 0
	for _, cn := range cs.Nodes {
		total += cn.Member.Status().SealRejects
	}
	return total
}

// Drain waits until every notifier has delivered and acknowledged what it
// enqueued, so a cycle's webhook work is inside that cycle.
func (cs *clusterStack) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, cn := range cs.Nodes {
			ns := cn.Notifier.Stats()
			pending += ns.Enqueued - ns.Delivered - ns.Failed
			pending += cn.Outbox.Len()
			if ns.Failed > 0 || ns.Dropped > 0 {
				return fmt.Errorf("node %s: %d webhook deliveries failed, %d dropped", cn.ID, ns.Failed, ns.Dropped)
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d webhook deliveries still pending after %v", pending, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Delivered sums the notifiers' acknowledged deliveries.
func (cs *clusterStack) Delivered() int {
	total := 0
	for _, cn := range cs.Nodes {
		total += cn.Notifier.Stats().Delivered
	}
	return total
}

// Close stops the cluster: members first, then each node's components.
func (cs *clusterStack) Close() {
	if cs == nil {
		return
	}
	for _, cn := range cs.Nodes {
		if cn.Member != nil {
			cn.Member.Close()
		}
	}
	if cs.recStore != nil {
		_ = cs.recStore.Close()
	}
	for _, cn := range cs.Nodes {
		cn.node.Close()
		if cn.rpc != nil {
			cn.rpc.Close()
		}
	}
}

// churnSpec builds the desired fleet: each listed agent on its host, under
// one policy, split over two unlimited tenants as the churn benchmark does.
func churnSpec(agents []specAgent, polJSON []byte) *FleetSpec {
	s := &FleetSpec{Tenants: []reconcile.TenantSpec{
		{Name: "team-a", MaxAgents: -1, Rate: -1},
		{Name: "team-b", MaxAgents: -1, Rate: -1},
	}}
	for i, a := range agents {
		tenant := "team-a"
		if i%2 == 1 {
			tenant = "team-b"
		}
		s.Agents = append(s.Agents, reconcile.AgentSpec{
			ID:     a.ID,
			URL:    a.Host.URL,
			Tenant: tenant,
			AKPub:  base64.StdEncoding.EncodeToString(a.Host.AKPub),
			Policy: polJSON,
		})
	}
	return s
}

// specAgent is one desired enrolment.
type specAgent struct {
	ID   string
	Host *host
}

// ---------------------------------------------------------------------------
// Webhook receiver.

// receivedNote is one delivery the in-process receiver accepted.
type receivedNote struct {
	AgentID string
	Type    string
	Sealed  bool
	At      time.Time
}

// receiver is the in-process webhook endpoint: it verifies each sealed
// delivery against the nodes' public keys before accepting it.
type receiver struct {
	Net netCell
	srv *server

	mu    sync.Mutex
	trust *dsse.Keyring
	notes []receivedNote
	bad   int
	// loseRevocations is a planted fault: failure notifications are
	// acknowledged but not kept.
	loseRevocations bool
}

func newReceiver() (*receiver, error) {
	r := &receiver{trust: dsse.NewKeyring()}
	srv, err := serve(http.HandlerFunc(r.handle), &r.Net)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	return r, nil
}

func (r *receiver) URL() string { return r.srv.URL + "/hook" }

// Trust adds the nodes' signing keys as trust anchors.
func (r *receiver) Trust(cs *clusterStack) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cn := range cs.Nodes {
		for _, pub := range cn.Keyring.PublicKeys() {
			r.trust.AddVerifier(pub)
		}
	}
}

func (r *receiver) handle(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	note := receivedNote{At: time.Now()}
	payload := body
	r.mu.Lock()
	defer r.mu.Unlock()
	if req.Header.Get("Content-Type") == webhook.DSSEContentType {
		env, err := dsse.Decode(body)
		if err == nil {
			payload, err = r.trust.Verify(env, webhook.RevocationPayloadType)
		}
		if err != nil {
			r.bad++
			http.Error(w, "bad seal: "+err.Error(), http.StatusForbidden)
			return
		}
		note.Sealed = true
	}
	var n webhook.Notification
	if err := json.Unmarshal(payload, &n); err != nil {
		r.bad++
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	note.AgentID, note.Type = n.AgentID, n.Type
	if !(r.loseRevocations && isRevocation(n.Type)) {
		r.notes = append(r.notes, note)
	}
	w.WriteHeader(http.StatusNoContent)
}

// Revocations returns the sealed failure notifications received so far —
// everything that is not reconciler or rollout lifecycle chatter.
func (r *receiver) Revocations() []receivedNote {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []receivedNote
	for _, n := range r.notes {
		if isRevocation(n.Type) {
			out = append(out, n)
		}
	}
	return out
}

// isRevocation tells a failure notification from lifecycle chatter.
func isRevocation(noteType string) bool {
	return !strings.HasPrefix(noteType, "reconcile-") && !strings.HasPrefix(noteType, "rollout-")
}

// Counts returns accepted and rejected deliveries.
func (r *receiver) Counts() (accepted, rejected int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.notes), r.bad
}

func (r *receiver) Close() { r.srv.Close() }

// ---------------------------------------------------------------------------
// Probes: a layer's public functions called directly on fixture inputs.

// probeInputs are real inputs captured from the fixture.
type probeInputs struct {
	host    *host
	pol     *Policy
	polJSON []byte
	entries []ima.Entry
}

func newProbeInputs(fx *fixture, pol *Policy) (*probeInputs, error) {
	polJSON, err := json.Marshal(pol)
	if err != nil {
		return nil, err
	}
	h := fx.Hosts[0]
	return &probeInputs{host: h, pol: pol, polJSON: polJSON, entries: h.Machine.IMA().Entries(0)}, nil
}

// probe is one micro-layer operation: Op runs the layer once, Units says how
// many units (entries, records, KiB) one call covers when the metric is per
// unit, and Iters fixes the loop length for operations too heavy to size by
// time.
type probe struct {
	Name  string
	Op    func() error
	Units func() float64
	Iters int
}

// probes returns the micro-layer operations in the order they must run (the
// journal scan reads what the journal append wrote). The returned function
// releases what they hold.
func (in *probeInputs) probes(fsys FS, dir string) ([]probe, func(), error) {
	var ps []probe
	var cleanup []func()
	done := func() {
		for _, f := range cleanup {
			f()
		}
	}
	add := func(name string, op func() error) { ps = append(ps, probe{Name: name, Op: op}) }
	selection := []int{measuredboot.PCRFirmware, measuredboot.PCRBoot, tpm.PCRIMA}
	nonce := make([]byte, 20)
	if _, err := rand.Read(nonce); err != nil {
		return nil, done, err
	}

	// api: one session round trip's worth of framing, and one full quote's.
	var sid [session.IDSize]byte
	copy(sid[:], "bench-session-id")
	comp, err := in.host.Machine.TPM().PCRComposite(selection)
	if err != nil {
		return nil, done, err
	}
	var mac [session.MACSize]byte
	buf := make([]byte, 0, 4096)
	add("api.session_frame_ns", func() error {
		req, err := api.AppendRoundRequest(buf[:0], api.RoundRequest{
			Kind: api.FrameSessionRequest, Nonce: nonce, Offset: len(in.entries), SessionID: sid})
		if err != nil {
			return err
		}
		if _, err := api.DecodeRoundRequest(req); err != nil {
			return err
		}
		resp := api.AppendSessionRound(buf[:0], api.SessionRound{TotalEntries: len(in.entries), Composite: comp, MAC: mac})
		_, err = api.DecodeBinaryRound(resp)
		return err
	})
	quote, err := in.host.Machine.TPM().Quote(nonce, selection)
	if err != nil {
		return nil, done, err
	}
	full := api.FullQuoteRound{
		Quote: quote, Offset: len(in.entries), TotalEntries: len(in.entries),
		RunningKernel: benchKernel, MBLog: api.EncodeBootLog(in.host.Machine.BootLog()),
	}
	bigBuf := make([]byte, 0, 64<<10)
	add("api.full_frame_ns", func() error {
		req, err := api.AppendRoundRequest(buf[:0], api.RoundRequest{
			Kind: api.FrameQuoteRequest, Nonce: nonce, Offset: len(in.entries), EstablishID: sid})
		if err != nil {
			return err
		}
		if _, err := api.DecodeRoundRequest(req); err != nil {
			return err
		}
		resp, err := api.AppendQuoteRound(bigBuf[:0], full)
		if err != nil {
			return err
		}
		_, err = api.DecodeBinaryRound(resp)
		return err
	})

	// session: the agent's Sum and the verifier's Verify of one round.
	key := session.DeriveKey(tpm.AKName(in.host.AKPub), quote.Signature, nonce, session.ID(sid))
	macer := session.NewMACer(key[:])
	add("session.mac_ns", func() error {
		macer.Sum(nonce, comp, uint64(len(in.entries)), &mac)
		if !macer.Verify(nonce, comp, uint64(len(in.entries)), mac[:]) {
			return errors.New("session MAC did not verify")
		}
		return nil
	})

	// tpm: producing and verifying one quote.
	akKey, err := tpm.ParseAKPublic(in.host.AKPub)
	if err != nil {
		return nil, done, err
	}
	add("tpm.verify_quote_ns", func() error {
		_, err := tpm.VerifyQuoteWithKey(akKey, quote, nonce)
		return err
	})
	add("tpm.quote_ns", func() error {
		_, err := in.host.Machine.TPM().Quote(nonce, selection)
		return err
	})

	// ima, policy: replaying the boot log and checking one entry.
	ps = append(ps, probe{
		Name:  "ima.replay_ns_per_entry",
		Op:    func() error { _ = ima.ReplayAggregate(in.entries); return nil },
		Units: func() float64 { return float64(len(in.entries)) },
	})
	paths := in.pol.Paths()
	allowed := make([]policy.Digest, len(paths))
	for i, p := range paths {
		allowed[i] = in.pol.Allowed(p)[0]
	}
	next := 0
	add("policy.check_ns", func() error {
		i := next % len(paths)
		next++
		return in.pol.Check(paths[i], allowed[i])
	})
	add("policy.marshal_us", func() error {
		_, err := json.Marshal(in.pol)
		return err
	})
	add("policy.unmarshal_us", func() error {
		var p Policy
		return json.Unmarshal(in.polJSON, &p)
	})

	// audit: sealing a 32-record sweep into an in-memory chain.
	const batchRecords = 32
	alog := audit.NewLog()
	batch := make([]audit.Entry, batchRecords)
	for i := range batch {
		batch[i] = audit.Entry{Time: benchEpoch, AgentID: agentID("probe", i), Outcome: audit.OutcomePass,
			VerifiedEntries: len(in.entries), CheckLevel: "session"}
	}
	ps = append(ps, probe{
		Name:  "audit.append_batch_ns_per_record",
		Op:    func() error { _, err := alog.AppendBatch(batch); return err },
		Units: func() float64 { return batchRecords },
	})

	// dsse: one checkpoint-sized signature and its verification.
	signer, err := dsse.GenerateSigner()
	if err != nil {
		return nil, done, err
	}
	ver := dsse.NewVerifier(signer.Public())
	body := []byte(`{"seq":123456,"head":"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}`)
	env := signer.Sign(audit.CheckpointPayloadType, body)
	add("dsse.sign_ns", func() error {
		_ = signer.Sign(audit.CheckpointPayloadType, body)
		return nil
	})
	add("dsse.verify_ns", func() error {
		_, err := ver.Verify(env, audit.CheckpointPayloadType)
		return err
	})

	// store: appending a batch of policy-sized rows under group commit, then
	// recovering the journal that built.
	const batchRows = 8
	jpath := filepath.Join(dir, "probe-journal.wal")
	j, _, err := store.OpenJournal(fsys, jpath, journalOpts()...)
	if err != nil {
		return nil, done, err
	}
	cleanup = append(cleanup, func() { _ = j.Close(); _ = fsys.Remove(jpath) })
	rows := make([][]byte, batchRows)
	for i := range rows {
		rows[i] = in.polJSON
	}
	batchKB := float64(len(in.polJSON)) * batchRows / 1024
	appended := 0
	ps = append(ps, probe{
		Name:  "store.append_batch_ns_per_kb",
		Op:    func() error { appended++; return j.AppendBatch(rows) },
		Units: func() float64 { return batchKB },
		Iters: 8,
	}, probe{
		Name: "store.scan_ns_per_kb",
		Op: func() error {
			j2, _, err := store.OpenJournal(fsys, jpath)
			if err != nil {
				return err
			}
			return j2.Close()
		},
		Units: func() float64 { return batchKB * float64(appended) },
		Iters: 2,
	})
	return ps, done, nil
}

// verifyAuditBytes runs the offline audit walk over a journal image and
// returns the records it covered.
func verifyAuditBytes(data []byte, kr *Keyring) (int, error) {
	rep := audit.VerifyJournalBytes(data, kr)
	if !rep.OK() {
		return 0, fmt.Errorf("audit journal does not verify: %v", rep.FirstBad)
	}
	return rep.Records + rep.Checkpoints, nil
}
