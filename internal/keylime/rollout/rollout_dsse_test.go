package rollout

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/keylime/dsse"
	"repro/internal/keylime/store"
	"repro/internal/policy"
)

func signingKeyring(t *testing.T) *dsse.Keyring {
	t.Helper()
	kr := dsse.NewKeyring()
	if _, err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	return kr
}

// An honest journal verifies across a crash-restart, and a key rotation
// between Begin and the restart must not break it: the old key stays in
// the trust set until retired.
func TestBundleVerifiesAcrossRestartAndRotation(t *testing.T) {
	dir := t.TempDir()
	f := newFakeFleet("a1", "a2", "a3")
	kr := signingKeyring(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Fleet: f, Store: st, Keyring: kr})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := c.Begin(candidate(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2, err := New(Config{Fleet: f, Store: st2, Keyring: kr})
	if err != nil {
		t.Fatalf("recovery with rotated keyring: %v", err)
	}
	got := c2.Status()
	if got.Stage != StageShadowing || got.Generation != gen || got.Tripped {
		t.Fatalf("recovered status = %+v, want shadowing gen %d untripped", got, gen)
	}
}

// Forging the journaled candidate policy must freeze the rollout as a
// signature failure: nothing installs in either direction, the verifier
// still starts, and the trip fires exactly once.
func TestForgedBundleFreezesRollout(t *testing.T) {
	dir := t.TempDir()
	f := newFakeFleet("a1", "a2")
	kr := signingKeyring(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Fleet: f, Store: st, Keyring: kr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(candidate(t)); err != nil {
		t.Fatal(err)
	}

	// Forge: swap the journaled candidate for a policy that admits an
	// extra binary, leaving the sealed bundle untouched.
	raw, ok := st.Get(keyCurrent)
	if !ok {
		t.Fatal("no journaled rollout record")
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	evil := policy.New()
	evil.Add("/usr/bin/backdoor", policy.Digest{0xEE})
	evilJSON, err := json.Marshal(evil)
	if err != nil {
		t.Fatal(err)
	}
	fields["policy"] = evilJSON
	forged, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(keyCurrent, forged); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var events []Event
	c2, err := New(Config{Fleet: f, Store: st2, Keyring: kr,
		AutoRollback: true, // must be ignored: restore points are untrusted
		Notify:       func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatalf("New must start frozen, not fail: %v", err)
	}
	got := c2.Status()
	if !got.Tripped || !strings.HasPrefix(got.TripDetail, "signature-failure") {
		t.Fatalf("status = %+v, want signature-failure trip", got)
	}
	if got.Stage != StageShadowing {
		t.Fatalf("stage = %s, want frozen at shadowing (no rollback on forged evidence)", got.Stage)
	}
	// Nothing installed: agents keep generation 0 active policy.
	for _, id := range []string{"a1", "a2"} {
		if pol, gen, _ := f.ActivePolicy(id); gen != 0 || pol.Has("/usr/bin/backdoor") || pol.Has("/usr/bin/newtool") {
			t.Fatalf("%s: active gen %d pol %v, want untouched", id, gen, pol.Paths())
		}
	}
	// Every Tick re-reports the error but the trip counted once.
	for i := 0; i < 3; i++ {
		if _, err := c2.Tick(); !errors.Is(err, ErrBundleSignature) {
			t.Fatalf("tick %d err = %v, want ErrBundleSignature", i, err)
		}
	}
	if got := c2.Status().Stats.SigFailures; got != 1 {
		t.Fatalf("SigFailures = %d, want 1 (one-shot)", got)
	}
	var sigEvents int
	for _, ev := range events {
		if ev.Type == "signature-failure" {
			sigEvents++
		}
	}
	if sigEvents != 1 {
		t.Fatalf("signature-failure events = %d, want 1", sigEvents)
	}
}

// A record journaled before the keyring was introduced (no bundle at
// all) must also freeze when a keyring is later required — silently
// trusting unsigned state would let an attacker strip the envelope.
func TestUnsignedRecordFreezesUnderKeyring(t *testing.T) {
	dir := t.TempDir()
	f := newFakeFleet("a1")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Fleet: f, Store: st}) // unsigned era
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(candidate(t)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2, err := New(Config{Fleet: f, Store: st2, Keyring: signingKeyring(t)})
	if err != nil {
		t.Fatal(err)
	}
	got := c2.Status()
	if !got.Tripped || !strings.Contains(got.TripDetail, "no sealed bundle") {
		t.Fatalf("status = %+v, want no-sealed-bundle trip", got)
	}
}

// A keyring with no signing key must refuse Begin outright rather than
// silently starting an unsigned rollout.
func TestBeginRequiresSigningKey(t *testing.T) {
	f := newFakeFleet("a1")
	c, err := New(Config{Fleet: f, Keyring: dsse.NewKeyring()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(candidate(t)); err == nil {
		t.Fatal("Begin with keyless keyring must fail")
	}
}

// The rollout record is rewritten at every stage transition with the
// same sealed bundle inside, so its journal is a whole put followed by
// patches. The offline walk replays those patches: an honest journal
// verifies, a patch tampered behind a re-sealed frame CRC is reported at
// its frame (the patch carries the CRC of the row it must rebuild), and
// a plain bit flip — which fails the frame CRC and would otherwise drop
// the newest stage silently — is reported as a torn frame there too.
func TestVerifyStateOverPatchedJournal(t *testing.T) {
	dir := t.TempDir()
	f := newFakeFleet("a1", "a2", "a3", "a4")
	kr := signingKeyring(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Fleet: f, Store: st, Keyring: kr, ShadowRounds: 2, CanaryRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.New()
	for i := 0; i < 60; i++ {
		pol.Add(fmt.Sprintf("/usr/bin/tool-%02d", i), policy.Digest{0xAA, byte(i)})
	}
	gen, err := c.Begin(pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(t, c, f, false, 6); got.Stage != StageCanary {
		t.Fatalf("after 6 rounds the rollout is at %s, want canary", got.Stage)
	}
	if stats := st.Stats(); stats.PatchedPuts == 0 {
		t.Fatalf("the rollout record never journaled as a patch: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyState(store.OS(), dir, kr)
	if err != nil || !rep.OK() || rep.Gen != gen || rep.Stage != StageCanary || !rep.Signed {
		t.Fatalf("honest patched journal: report %+v err %v, want generation %d at canary, verified", rep, err, gen)
	}

	jpath := filepath.Join(dir, store.JournalFile)
	honest, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := store.ScanRecords(honest)
	if err != nil {
		t.Fatal(err)
	}
	var patch store.ScannedRecord
	for _, r := range recs {
		if r.Payload[0] == 3 && bytes.Contains(r.Payload, []byte(keyCurrent)) {
			patch = r // the last patch of the rollout record
		}
	}
	if patch.Payload == nil {
		t.Fatal("no patch record for the rollout record in the journal")
	}
	last := int(patch.Offset) + 8 + len(patch.Payload) - 1 // a byte of the patch's middle

	// Tampered with tooling: middle byte changed, frame CRC re-sealed.
	tampered := append([]byte(nil), honest...)
	tampered[last] ^= 0x01
	binary.BigEndian.PutUint32(tampered[patch.Offset+4:], crc32.Checksum(tampered[patch.Offset+8:last+1], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(jpath, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyState(store.OS(), dir, kr)
	if err != nil {
		t.Fatalf("a tampered patch is a finding, not a local fault: %v", err)
	}
	if rep.Class != "bad-record" || rep.Index != patch.Index || rep.Offset != patch.Offset {
		t.Fatalf("re-sealed tampered patch: %+v, want bad-record at record %d offset %d", rep, patch.Index, patch.Offset)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open over the tampered patch: %v, want ErrCorrupt", err)
	}

	// A plain bit flip.
	flipped := append([]byte(nil), honest...)
	flipped[last] ^= 0x01
	if err := os.WriteFile(jpath, flipped, 0o600); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyState(store.OS(), dir, kr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != "torn-frame" || rep.Index != patch.Index || rep.Offset != patch.Offset {
		t.Fatalf("bit-flipped patch: %+v, want torn-frame at record %d offset %d", rep, patch.Index, patch.Offset)
	}
}
