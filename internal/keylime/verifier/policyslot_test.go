package verifier_test

// Encode-once policy slots: a state row carries the JSON its policy was
// encoded to at install time. These tests hold that cache to the only
// thing that matters about it — it is never stale: after every way a
// policy can be installed, replaced or removed, the exported bytes are
// what encoding the installed policy afresh would produce.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/keylime/verifier"
	"repro/internal/policy"
	"repro/internal/tpm"
)

// genPolicy is a distinct ~40-line policy per generation.
func genPolicy(gen int) *policy.RuntimePolicy {
	pol := policy.New()
	pol.SetMeta(policy.Meta{Generator: "slot-test", Release: gen})
	for i := 0; i < 40; i++ {
		var d tpm.Digest
		d[0], d[1] = byte(gen), byte(i)
		pol.Add(fmt.Sprintf("/usr/bin/tool-%02d", i), d)
	}
	_ = pol.SetExcludes([]string{"/tmp/.*", fmt.Sprintf("/var/gen%d/.*", gen)})
	return pol
}

func mustJSON(t *testing.T, pol *policy.RuntimePolicy) []byte {
	t.Helper()
	b, err := json.Marshal(pol)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// exportedRow returns the agent's row from a full export.
func exportedRow(t *testing.T, v *verifier.Verifier, id string) verifier.AgentState {
	t.Helper()
	snap, err := v.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range snap.Agents {
		if as.AgentID == id {
			return as
		}
	}
	t.Fatalf("agent %s not exported", id)
	return verifier.AgentState{}
}

// checkFresh asserts the agent's exported policy bytes — through
// ExportState and, the row being dirty after every step, ExportDirty —
// equal a fresh encoding of its active policy, and its shadow bytes a
// fresh encoding of wantShadow (nil = slot empty).
func checkFresh(t *testing.T, step string, v *verifier.Verifier, id string, wantShadow *policy.RuntimePolicy) {
	t.Helper()
	active, _, err := v.ActivePolicy(id)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	want := mustJSON(t, active)
	rows := []verifier.AgentState{exportedRow(t, v, id)}
	changed, _, err := v.ExportDirty()
	if err != nil {
		t.Fatalf("%s: ExportDirty: %v", step, err)
	}
	if len(changed) != 1 || changed[0].AgentID != id {
		t.Fatalf("%s: ExportDirty = %d rows, want the one just changed", step, len(changed))
	}
	rows = append(rows, changed[0])
	for i, row := range rows {
		if !bytes.Equal(row.Policy, want) {
			t.Fatalf("%s: export %d carries a stale policy encoding\n got %.120s\nwant %.120s", step, i, row.Policy, want)
		}
		switch {
		case wantShadow == nil && len(row.ShadowPolicy) != 0:
			t.Fatalf("%s: export %d still carries a shadow policy", step, i)
		case wantShadow != nil && !bytes.Equal(row.ShadowPolicy, mustJSON(t, wantShadow)):
			t.Fatalf("%s: export %d carries a stale shadow encoding", step, i)
		}
	}
}

func TestExportedPolicyEncodingNeverStale(t *testing.T) {
	const id = "slot-0001-4a97-9ef7-75bd81c0f1ee"
	v := verifier.New("")
	defer v.Close()
	p1 := genPolicy(1)
	if err := v.AddAgentWithAK(id, "http://agent.invalid", []byte("ak"), p1); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "AddAgentWithAK", v, id, nil)

	// The slot holds a clone: the caller's later edits are not installed,
	// so they must not show in the export either.
	p1.Add("/usr/bin/added-after-install", tpm.Digest{9})
	if err := v.Resume(id); err != nil { // any mutation, to re-dirty the row
		t.Fatal(err)
	}
	checkFresh(t, "caller mutates its policy after install", v, id, nil)
	if row := exportedRow(t, v, id); bytes.Contains(row.Policy, []byte("added-after-install")) {
		t.Fatal("an edit to the caller's policy object leaked into the installed encoding")
	}

	if err := v.UpdatePolicy(id, genPolicy(2)); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "UpdatePolicy", v, id, nil)

	if err := v.InstallPolicyGeneration(id, 3, genPolicy(3)); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "InstallPolicyGeneration", v, id, nil)

	p4 := genPolicy(4)
	if err := v.SetShadowPolicy(id, 4, p4); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "SetShadowPolicy", v, id, p4)
	// Same generation again is a no-op: still p4, not the new object.
	if err := v.SetShadowPolicy(id, 4, genPolicy(40)); err != nil {
		t.Fatal(err)
	}
	if err := v.Resume(id); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "SetShadowPolicy (same generation)", v, id, p4)

	if err := v.InstallPolicyGeneration(id, 4, p4); err != nil { // promote
		t.Fatal(err)
	}
	checkFresh(t, "promotion", v, id, nil)
	if got, _, _ := v.ActivePolicy(id); !bytes.Equal(mustJSON(t, got), mustJSON(t, p4)) {
		t.Fatal("promotion did not install the candidate")
	}

	p5 := genPolicy(5)
	if err := v.SetShadowPolicy(id, 5, p5); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "SetShadowPolicy (next generation)", v, id, p5)
	if err := v.ClearShadowPolicy(id); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "ClearShadowPolicy", v, id, nil)

	// ImportAgents with replace: the row of another verifier, holding the
	// same agent under a different active and shadow policy.
	other := verifier.New("")
	defer other.Close()
	p6, p7 := genPolicy(6), genPolicy(7)
	if err := other.AddAgentWithAK(id, "http://agent.invalid", []byte("ak"), p6); err != nil {
		t.Fatal(err)
	}
	if err := other.SetShadowPolicy(id, 7, p7); err != nil {
		t.Fatal(err)
	}
	if skipped := v.ImportAgents([]verifier.AgentState{exportedRow(t, other, id)}, true); len(skipped) != 0 {
		t.Fatalf("ImportAgents skipped %v", skipped)
	}
	checkFresh(t, "ImportAgents", v, id, p7)
	if got, _, _ := v.ActivePolicy(id); !bytes.Equal(mustJSON(t, got), mustJSON(t, p6)) {
		t.Fatal("ImportAgents did not install the imported policy")
	}

	// Restore: through the JSON a state store holds, as after a restart.
	snap, err := v.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back verifier.Snapshot
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	restored := verifier.New("")
	defer restored.Close()
	if err := restored.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if err := restored.Resume(id); err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "RestoreState", restored, id, p7)
	if got, want := exportedRow(t, restored, id), exportedRow(t, v, id); !bytes.Equal(got.Policy, want.Policy) {
		t.Fatal("a restored row re-exports different policy bytes than it was restored from")
	}
}

// TestExportedPolicyEncodingUnderConcurrentInstalls races installs
// against exports (run with -race -cpu 1,4). A row is exported under the
// agent's lock, so whatever interleaving it observes, its bytes must be
// the encoding of the generation it names.
func TestExportedPolicyEncodingUnderConcurrentInstalls(t *testing.T) {
	const (
		agents = 4
		gens   = 24
	)
	v := verifier.New("")
	defer v.Close()
	enc := make(map[uint64][]byte, gens+1)
	pols := make(map[uint64]*policy.RuntimePolicy, gens+1)
	for g := uint64(1); g <= gens; g++ {
		pols[g] = genPolicy(int(g))
		enc[g] = mustJSON(t, pols[g])
	}
	ids := make([]string, agents)
	for i := range ids {
		ids[i] = fmt.Sprintf("slot-%04d-4a97-9ef7-75bd81c0f1ee", i)
		if err := v.AddAgentWithAK(ids[i], "http://agent.invalid", []byte("ak"), pols[1]); err != nil {
			t.Fatal(err)
		}
		if err := v.InstallPolicyGeneration(ids[i], 1, pols[1]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(rows []verifier.AgentState) {
		for _, row := range rows {
			if want := enc[row.PolicyGeneration]; !bytes.Equal(row.Policy, want) {
				t.Errorf("%s: row at generation %d carries another generation's policy bytes", row.AgentID, row.PolicyGeneration)
			}
			if len(row.ShadowPolicy) != 0 && !bytes.Equal(row.ShadowPolicy, enc[row.ShadowGeneration]) {
				t.Errorf("%s: shadow at generation %d carries another generation's bytes", row.AgentID, row.ShadowGeneration)
			}
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, id := range ids {
		wg.Add(1)
		go func(id string) { // one rollout per agent: shadow g+1, promote, repeat
			defer wg.Done()
			for g := uint64(2); g <= gens; g++ {
				if err := v.SetShadowPolicy(id, g, pols[g]); err != nil {
					t.Error(err)
				}
				if err := v.InstallPolicyGeneration(id, g, pols[g]); err != nil {
					t.Error(err)
				}
			}
		}(id)
	}
	var exporters sync.WaitGroup
	for i := 0; i < 2; i++ {
		exporters.Add(1)
		go func(full bool) {
			defer exporters.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if full {
					snap, _ := v.ExportState()
					check(snap.Agents)
				} else {
					changed, _, _ := v.ExportDirty()
					check(changed)
				}
			}
		}(i == 0)
	}
	wg.Wait()
	close(done)
	exporters.Wait()
	snap, _ := v.ExportState()
	check(snap.Agents)
	for _, row := range snap.Agents {
		if row.PolicyGeneration != gens {
			t.Fatalf("%s ended at generation %d, want %d", row.AgentID, row.PolicyGeneration, gens)
		}
	}
}

// TestRestoreSharedBadPolicyReportsEveryRow: rows that share policy bytes
// share one parse, but a policy that does not parse is every such row's
// own failure.
func TestRestoreSharedBadPolicyReportsEveryRow(t *testing.T) {
	src := verifier.New("")
	defer src.Close()
	const good = "slot-good-4a97-9ef7-75bd81c0f1ee"
	if err := src.AddAgentWithAK(good, "http://agent.invalid", []byte("ak"), genPolicy(1)); err != nil {
		t.Fatal(err)
	}
	row := exportedRow(t, src, good)
	rows := []verifier.AgentState{row}
	for i := 0; i < 3; i++ {
		bad := row
		bad.AgentID = fmt.Sprintf("slot-bad%d-4a97-9ef7-75bd81c0f1ee", i)
		if i < 2 {
			bad.Policy = []byte(`{"digests": [broken`)
		} else {
			bad.ShadowPolicy = []byte(`{"digests": [broken`)
		}
		rows = append(rows, bad)
	}
	v := verifier.New("")
	defer v.Close()
	skipped, err := v.RestoreStateLenient(verifier.Snapshot{Agents: rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 3 || v.AgentCount() != 1 {
		t.Fatalf("skipped %d rows, kept %d; want 3 and 1: %v", len(skipped), v.AgentCount(), skipped)
	}
	for i, re := range skipped {
		want := "policy"
		if i == 2 {
			want = "shadow_policy"
		}
		if re.Field != want || re.AgentID != rows[i+1].AgentID {
			t.Fatalf("skip %d = %s field %q, want %s field %q", i, re.AgentID, re.Field, rows[i+1].AgentID, want)
		}
	}
}
