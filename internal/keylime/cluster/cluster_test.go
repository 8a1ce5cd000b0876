package cluster

// In-process multi-verifier cluster harness: N nodes share one
// MemTransport governed by a PeerFaults plan, each with its own durable
// store and verifier; the whole cluster runs on one simulated clock and
// is advanced tick by tick, so elections, handoffs and replication are
// deterministic. Like the fleet benchmark, many agent IDs are enrolled
// against ONE simulated machine reached through a loopback RoundTripper —
// every attestation round still does real nonce/quote/ECDSA/IMA work.

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keylime/agent"
	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/simclock"
	"repro/internal/tpm"
	"repro/internal/vfs"
)

type loopbackTransport struct{ h http.Handler }

func (t loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

const testAgentURL = "http://agent.cluster.internal"

type testNode struct {
	id          string
	dir         string
	st          *store.Store
	v           *verifier.Verifier
	n           *Node
	steps       *faultinject.StepHook
	revocations atomic.Int64
}

type harness struct {
	t      *testing.T
	ctx    context.Context
	clk    *simclock.Simulated
	faults *faultinject.PeerFaults
	tr     *MemTransport
	client *http.Client
	mach   *machine.Machine
	akPub  []byte
	pol    *policy.RuntimePolicy

	peers    []string
	replicas int
	hb       time.Duration
	lease    time.Duration
	nodes    map[string]*testNode // live nodes
	dirs     map[string]string
}

func newHarness(t *testing.T, replicas int, ids ...string) *harness {
	t.Helper()
	ca, err := tpm.NewManufacturerCA(rand.Reader)
	if err != nil {
		t.Fatalf("NewManufacturerCA: %v", err)
	}
	m, err := machine.New(ca, machine.WithTPMOptions(tpm.WithEKBits(1024)))
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	if err := m.WriteFile("/usr/bin/tool", []byte("\x7fELF tool"), vfs.ModeExecutable); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := m.Exec("/usr/bin/tool"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	akPub, err := m.TPM().CreateAK()
	if err != nil {
		t.Fatalf("CreateAK: %v", err)
	}
	pol, err := core.SnapshotPolicy(m.FS(), nil)
	if err != nil {
		t.Fatalf("SnapshotPolicy: %v", err)
	}
	h := &harness{
		t:        t,
		ctx:      context.Background(),
		clk:      simclock.NewSimulated(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)),
		faults:   faultinject.NewPeerFaults(),
		client:   &http.Client{Transport: loopbackTransport{h: agent.New(m).Handler()}},
		mach:     m,
		akPub:    akPub,
		pol:      pol,
		peers:    append([]string(nil), ids...),
		replicas: replicas,
		hb:       time.Second,
		lease:    4 * time.Second,
		nodes:    make(map[string]*testNode),
		dirs:     make(map[string]string),
	}
	h.tr = NewMemTransport(h.faults)
	sort.Strings(h.peers)
	for _, id := range h.peers {
		h.dirs[id] = t.TempDir()
		h.startNode(id)
	}
	return h
}

// startNode boots (or reboots) a node from its durable store directory.
func (h *harness) startNode(id string) *testNode {
	h.t.Helper()
	st, err := store.Open(h.dirs[id])
	if err != nil {
		h.t.Fatalf("store.Open(%s): %v", id, err)
	}
	tn := &testNode{id: id, dir: h.dirs[id], st: st, steps: faultinject.NewStepHook()}
	tn.v = verifier.New("",
		verifier.WithHTTPClient(h.client),
		verifier.WithPollConcurrency(8),
		verifier.WithRevocationHandler(func(agentID string, f verifier.Failure) {
			tn.revocations.Add(1)
		}),
	)
	n, err := NewNode(Config{
		NodeID:         id,
		Peers:          h.peers,
		Replicas:       h.replicas,
		HeartbeatEvery: h.hb,
		LeaseTimeout:   h.lease,
		Verifier:       tn.v,
		Store:          st,
		Transport:      h.tr,
		Clock:          h.clk,
		Steps:          tn.steps,
		Logf:           h.t.Logf,
	})
	if err != nil {
		h.t.Fatalf("NewNode(%s): %v", id, err)
	}
	tn.n = n
	h.tr.Register(id, n.Handle)
	h.nodes[id] = tn
	return tn
}

// kill simulates a process death: traffic drops both ways, the node
// stops ticking, in-memory state is lost. The store directory survives.
func (h *harness) kill(id string) {
	h.t.Helper()
	tn, ok := h.nodes[id]
	if !ok {
		h.t.Fatalf("kill(%s): not live", id)
	}
	h.faults.KillPeer(id)
	tn.n.Close()
	delete(h.nodes, id)
	_ = tn.st.Close() // release the journal; durability is per-mutation anyway
}

// revive restarts a previously killed node from its journal.
func (h *harness) revive(id string) *testNode {
	h.t.Helper()
	h.faults.Revive(id)
	return h.startNode(id)
}

// restart is a clean stop + boot (rolling-restart semantics).
func (h *harness) restart(id string) *testNode {
	h.kill(id)
	return h.revive(id)
}

// tick advances the clock one heartbeat and ticks every live node in ID
// order.
func (h *harness) tick() {
	h.clk.Advance(h.hb)
	ids := h.liveIDs()
	for _, id := range ids {
		h.nodes[id].n.Tick(h.ctx)
	}
}

func (h *harness) liveIDs() []string {
	ids := make([]string, 0, len(h.nodes))
	for id := range h.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// leader returns the single live leader, or nil.
func (h *harness) leader() *testNode {
	var lead *testNode
	for _, id := range h.liveIDs() {
		tn := h.nodes[id]
		if st := tn.n.Status(); st.Role == RoleLeader {
			if lead != nil {
				h.t.Fatalf("two leaders: %s and %s", lead.id, tn.id)
			}
			lead = tn
		}
	}
	return lead
}

// converge ticks until exactly one leader exists, its committed
// assignment covers exactly the live set, every live node agrees, and no
// handoff is pending.
func (h *harness) converge() *testNode {
	h.t.Helper()
	live := h.liveIDs()
	for i := 0; i < 120; i++ {
		h.tick()
		lead := h.leader()
		if lead == nil {
			continue
		}
		st := lead.n.Status()
		if st.PendingEpoch > st.Assign.Epoch || !sameMembers(st.Assign.Members, live) {
			continue
		}
		agreed := true
		for _, id := range live {
			ns := h.nodes[id].n.Status()
			if ns.Assign.Epoch != st.Assign.Epoch || ns.PendingEpoch > ns.Assign.Epoch {
				agreed = false
				break
			}
		}
		if agreed {
			return lead
		}
	}
	for _, id := range h.liveIDs() {
		h.t.Logf("node %s: %+v", id, h.nodes[id].n.Status())
	}
	h.t.Fatalf("cluster did not converge for live set %v", live)
	return nil
}

// addAgents enrolls n agents with the base policy on their ring owners
// and persists + replicates the rows.
func (h *harness) addAgents(n int) []string {
	h.t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ag-%04d-4a97-9ef7-75bd81c0f1ee", i)
		h.addAgent(id, h.pol)
		ids = append(ids, id)
	}
	return ids
}

func (h *harness) addAgent(id string, pol *policy.RuntimePolicy) {
	h.t.Helper()
	owner := h.ownerOf(id)
	if err := h.nodes[owner].v.AddAgentWithAK(id, testAgentURL, h.akPub, pol); err != nil {
		h.t.Fatalf("AddAgentWithAK(%s on %s): %v", id, owner, err)
	}
}

// ownerOf resolves the agent's owner from the committed assignment.
func (h *harness) ownerOf(id string) string {
	h.t.Helper()
	for _, nid := range h.liveIDs() {
		st := h.nodes[nid].n.Status()
		if st.Assign.Epoch > 0 {
			return NewRing(st.Assign.Members, 0).Owner(id)
		}
	}
	h.t.Fatalf("no committed assignment to resolve owner of %s", id)
	return ""
}

// sweepAll runs one attestation sweep on every live node and returns the
// combined stats, then ticks once so the results replicate.
func (h *harness) sweepAll() verifier.PollStats {
	var sum verifier.PollStats
	for _, id := range h.liveIDs() {
		st := h.nodes[id].n.Sweep(h.ctx)
		sum.Attested += st.Attested
		sum.Failed += st.Failed
		sum.Degraded += st.Degraded
		sum.Halted += st.Halted
		sum.SessionRounds += st.SessionRounds
		sum.FullQuoteRounds += st.FullQuoteRounds
		sum.ForcedUpgrades += st.ForcedUpgrades
	}
	h.tick()
	return sum
}

// assertPartitioned checks every enrolled agent is owned by exactly one
// live node and returns the owner map.
func (h *harness) assertPartitioned(agents []string) map[string]string {
	h.t.Helper()
	owner := map[string]string{}
	for _, nid := range h.liveIDs() {
		for _, ag := range h.nodes[nid].v.AgentIDs() {
			if prev, dup := owner[ag]; dup {
				h.t.Fatalf("agent %s owned by both %s and %s", ag, prev, nid)
			}
			owner[ag] = nid
		}
	}
	for _, ag := range agents {
		if _, ok := owner[ag]; !ok {
			h.t.Fatalf("agent %s owned by no live node", ag)
		}
	}
	return owner
}

func TestClusterBootstrapPartitionsFleet(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	lead := h.converge()
	if got := lead.n.Status().Assign.Members; len(got) != 3 {
		t.Fatalf("assignment members = %v", got)
	}
	agents := h.addAgents(60)
	owners := h.assertPartitioned(agents)
	perNode := map[string]int{}
	for _, o := range owners {
		perNode[o]++
	}
	for _, id := range h.peers {
		if perNode[id] == 0 {
			t.Fatalf("node %s owns no agents: %v", id, perNode)
		}
	}
	if st := h.sweepAll(); st.Attested != 60 || st.Failed != 0 {
		t.Fatalf("cluster sweep = %+v, want 60 attested", st)
	}
	// The status document reports a live cluster.
	st := lead.n.Status()
	for _, p := range st.Peers {
		if !p.Alive {
			t.Fatalf("leader sees peer %s dead: %+v", p.ID, st)
		}
	}
}

func TestClusterFailoverPreservesAttestationState(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	lead := h.converge()
	agents := h.addAgents(30)
	h.sweepAll()
	h.sweepAll() // second sweep: frontier past the initial log replay
	h.tick()     // drain replication

	// Kill a non-leader so the coordinator survives to drive the handoff.
	victim := ""
	for _, id := range h.peers {
		if id != lead.id {
			victim = id
			break
		}
	}
	moved := h.nodes[victim].v.AgentIDs()
	if len(moved) == 0 {
		t.Fatalf("victim %s owns no agents", victim)
	}
	before, err := h.nodes[victim].v.ExportAgents(moved)
	if err != nil {
		t.Fatal(err)
	}
	preState := map[string]verifier.AgentState{}
	for _, st := range before {
		preState[st.AgentID] = st
	}
	h.kill(victim)
	h.converge()
	h.assertPartitioned(agents)

	// Survivors resume the dead shard from the replicated journal: the
	// frontier and attestation counters continue, they do not reset.
	for _, ag := range moved {
		newOwner := h.ownerOf(ag)
		rows, err := h.nodes[newOwner].v.ExportAgents([]string{ag})
		if err != nil || len(rows) != 1 {
			t.Fatalf("export %s from %s: %v (%d rows)", ag, newOwner, err, len(rows))
		}
		pre := preState[ag]
		if rows[0].Attestations != pre.Attestations || rows[0].NextOffset != pre.NextOffset {
			t.Fatalf("agent %s resumed at attestations=%d offset=%d, want %d/%d from replica",
				ag, rows[0].Attestations, rows[0].NextOffset, pre.Attestations, pre.NextOffset)
		}
	}
	if st := h.sweepAll(); st.Attested != 30 || st.Failed != 0 {
		t.Fatalf("post-failover sweep = %+v, want 30 attested / 0 failed", st)
	}
}

func TestClusterLeaderFailover(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	lead := h.converge()
	agents := h.addAgents(30)
	h.sweepAll()
	h.tick()
	h.kill(lead.id)
	newLead := h.converge()
	if newLead.id == lead.id {
		t.Fatalf("dead node still leader")
	}
	h.assertPartitioned(agents)
	if st := h.sweepAll(); st.Attested != 30 || st.Failed != 0 {
		t.Fatalf("sweep after leader failover = %+v", st)
	}
}

func TestClusterRejoinGetsShardBack(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	lead := h.converge()
	agents := h.addAgents(30)
	h.sweepAll()
	h.tick()
	victim := ""
	for _, id := range h.peers {
		if id != lead.id {
			victim = id
			break
		}
	}
	h.kill(victim)
	h.converge()
	h.sweepAll()

	h.revive(victim)
	h.converge()
	owners := h.assertPartitioned(agents)
	back := 0
	for _, o := range owners {
		if o == victim {
			back++
		}
	}
	if back == 0 {
		t.Fatalf("rejoined node %s got no shard back: %v", victim, owners)
	}
	if st := h.sweepAll(); st.Attested != 30 || st.Failed != 0 {
		t.Fatalf("sweep after rejoin = %+v", st)
	}
}

// TestClusterFleetProxyGloballyConsistentGeneration runs a cross-shard
// policy-generation install through the coordinator's FleetProxy and
// GenerationSource: every agent on every shard ends at the same
// coordinator-issued generation.
func TestClusterFleetProxyGloballyConsistentGeneration(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	lead := h.converge()
	agents := h.addAgents(24)
	h.sweepAll()

	fleet := lead.n.Fleet(h.ctx)
	if got := fleet.AgentIDs(); len(got) != 24 {
		t.Fatalf("fleet AgentIDs = %d, want 24 across all shards", len(got))
	}
	gen, err := lead.n.NextGeneration()
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range agents {
		if err := fleet.InstallPolicyGeneration(ag, gen, h.pol); err != nil {
			t.Fatalf("InstallPolicyGeneration(%s): %v", ag, err)
		}
	}
	for _, ag := range agents {
		st, err := fleet.Status(ag)
		if err != nil {
			t.Fatalf("Status(%s): %v", ag, err)
		}
		if st.PolicyGeneration != gen {
			t.Fatalf("agent %s at generation %d, want %d on every shard", ag, st.PolicyGeneration, gen)
		}
	}
	// The watermark survives leader failover: the next coordinator
	// allocates above it.
	h.kill(lead.id)
	newLead := h.converge()
	next, err := newLead.n.NextGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if next <= gen {
		t.Fatalf("failover coordinator issued generation %d, already used %d", next, gen)
	}
}

// TestClusterHTTPTransport elects a two-node cluster over real HTTP
// RPC endpoints.
func TestClusterHTTPTransport(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	peers := []string{"h1", "h2"}
	addrs := map[string]string{}
	tr := &HTTPTransport{Addrs: addrs}
	clk := simclock.NewSimulated(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	var nodes []*Node
	for i, id := range peers {
		st, err := store.Open(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n, err := NewNode(Config{
			NodeID:         id,
			Peers:          peers,
			Verifier:       verifier.New(""),
			Store:          st,
			Transport:      tr,
			Clock:          clk,
			HeartbeatEvery: time.Second,
			LeaseTimeout:   4 * time.Second,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(RPCHandler(n.Handle))
		defer srv.Close()
		addrs[id] = srv.URL
		nodes = append(nodes, n)
	}
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		clk.Advance(time.Second)
		for _, n := range nodes {
			n.Tick(ctx)
		}
		var lead *Node
		for _, n := range nodes {
			if st := n.Status(); st.Role == RoleLeader && st.Assign.Epoch > 0 && len(st.Assign.Members) == 2 {
				lead = n
			}
		}
		if lead != nil {
			return
		}
	}
	t.Fatalf("no leader with a committed 2-node assignment over HTTP transport")
}

// TestClusterStandbyConvergesAfterRepeatedWrites: the follow tail keeps no
// values, so when a row is written several times — or deleted and put
// back — between two replication ticks, the standby is sent the row as it
// stands, once. Its replica must then equal the owner's shard byte for
// byte: nothing stale, nothing missing, nothing extra.
func TestClusterStandbyConvergesAfterRepeatedWrites(t *testing.T) {
	h := newHarness(t, 1, "v1", "v2", "v3")
	h.converge()
	agents := h.addAgents(9)
	if st := h.sweepAll(); st.Attested != len(agents) || st.Failed != 0 {
		t.Fatalf("first sweep = %+v", st)
	}
	// Four sweeps and no tick: every row is rewritten four times, and on
	// each node one row is also deleted and put back in between.
	for round := 0; round < 4; round++ {
		for _, id := range h.liveIDs() {
			tn := h.nodes[id]
			if st := tn.n.Sweep(h.ctx); st.Failed != 0 {
				t.Fatalf("round %d on %s = %+v", round, id, st)
			}
			if round != 2 {
				continue
			}
			for k, v := range tn.st.All() {
				if strings.HasPrefix(k, agentPrefix) {
					if err := tn.st.PutBatch([]store.KV{{Key: k, Delete: true}, {Key: k, Value: v}}); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
	}
	h.tick()
	replicated := 0
	for _, src := range h.liveIDs() {
		shard := map[string][]byte{}
		for k, v := range h.nodes[src].st.All() {
			if strings.HasPrefix(k, agentPrefix) {
				shard[k] = v
			}
		}
		holders := 0
		for _, dst := range h.liveIDs() {
			prefix := replicaPrefix + src + "/"
			replica := map[string][]byte{}
			for k, v := range h.nodes[dst].st.All() {
				if strings.HasPrefix(k, prefix) {
					replica[strings.TrimPrefix(k, prefix)] = v
				}
			}
			if len(replica) == 0 {
				continue
			}
			holders++
			if len(replica) != len(shard) {
				t.Fatalf("%s holds %d rows of %s's shard of %d", dst, len(replica), src, len(shard))
			}
			for k, v := range shard {
				if !bytes.Equal(replica[k], v) {
					t.Fatalf("%s's replica of %s row %s differs from the owner's", dst, src, k)
				}
				replicated++
			}
		}
		if len(shard) > 0 && holders != 1 {
			t.Fatalf("%s's shard is replicated on %d nodes, want 1", src, holders)
		}
	}
	if replicated != len(agents) {
		t.Fatalf("%d rows verified on standbys, want %d", replicated, len(agents))
	}
}
