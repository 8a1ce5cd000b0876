package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// replayOver replays payloads, in order, over a state holding k = base.
func replayOver(base []byte, payloads ...[]byte) (map[string][]byte, error) {
	r := newReplay()
	r.state["k"] = append([]byte(nil), base...) // replay patches in place
	for i, p := range payloads {
		if _, _, err := r.apply(ScannedRecord{Index: i, Payload: append([]byte(nil), p...)}); err != nil {
			return nil, err
		}
	}
	return r.finish()
}

// FuzzApplyMutation holds the replay decoder to its three promises: an
// arbitrary payload over an arbitrary base never panics and fails only
// with ErrCorrupt; encode→replay is the identity, also down a chain of
// patches; and a patch replayed onto another base either rebuilds exactly
// the value it was cut for or is refused — never a third value.
func FuzzApplyMutation(f *testing.F) {
	row := func(n int) []byte {
		return []byte(fmt.Sprintf(`{"policy":{"digests":{"/usr/bin/a":["%064x"]}},"attestations":%d}`, 7, n))
	}
	whole, _, _ := encodePut("k", nil, row(1), false)
	patch, _, _ := encodePut("k", row(1), row(2), true)
	f.Add(row(1), row(2), patch, row(3))
	f.Add(row(1), row(10), whole, row(1))
	f.Add(row(9), row(9), encodeDelete("k"), []byte{})
	f.Add([]byte{}, []byte("x"), []byte{opPatch, 0, 0, 0, 1, 'k', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0, 0, 0, 0}, []byte("y"))
	f.Add([]byte("abc"), []byte("abd"), []byte{opPut, 0xff, 0xff, 0xff, 0xff}, []byte(nil))
	f.Fuzz(func(t *testing.T, base, value, payload, other []byte) {
		if _, err := replayOver(base, payload); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("arbitrary payload failed with %v, want ErrCorrupt", err)
		}

		first, kept, patched := encodePut("k", base, value, true)
		if !bytes.Equal(kept, value) {
			t.Fatalf("encodePut kept %q for value %q", kept, value)
		}
		if patched && len(first) >= mutationHeaderSize+len("k")+len(value) {
			t.Fatalf("patch record of %d bytes for a %d-byte value: a whole put is smaller", len(first), len(value))
		}
		second, _, _ := encodePut("k", value, other, true)
		for n, want := range [][]byte{value, other} {
			state, err := replayOver(base, [][]byte{first, second}[:n+1]...)
			if err != nil || !bytes.Equal(state["k"], want) {
				t.Fatalf("encode→replay of %d records: err %v, got %q want %q", n+1, err, state["k"], want)
			}
		}

		state, err := replayOver(other, first)
		switch {
		case err != nil && (!patched || !errors.Is(err, ErrCorrupt)):
			t.Fatalf("replay onto another base: %v (patched=%v)", err, patched)
		case err == nil && !bytes.Equal(state["k"], value):
			t.Fatalf("patch onto a wrong base produced %q, neither %q nor ErrCorrupt", state["k"], value)
		}
	})
}

// TestReplayChecksLastPatchAtItsFrame: the checksum a replay owes is the
// last patch's, whatever came before it, and a failure names that frame.
func TestReplayChecksLastPatchAtItsFrame(t *testing.T) {
	row := func(a, b int) []byte {
		return append(bytes.Repeat([]byte("cold "), 40), fmt.Sprintf("next:%d filler-filler-filler attest:%d", a, b)...)
	}
	p1, _, _ := encodePut("k", row(1, 1), row(1, 2), true) // touches attest only
	p2, _, _ := encodePut("k", row(1, 2), row(1, 3), true)
	if state, err := replayOver(row(1, 1), p1, p2); err != nil || !bytes.Equal(state["k"], row(1, 3)) {
		t.Fatalf("honest chain: %v", err)
	}
	// The same patches over a base whose other counter differs rebuild a
	// row that never existed.
	_, err := replayOver(row(2, 1), p1, p2)
	var re *ReplayError
	if !errors.As(err, &re) || !errors.Is(err, ErrCorrupt) || re.Index != 1 {
		t.Fatalf("wrong base: %v, want ErrCorrupt at record 1", err)
	}
	// A whole put after the patches settles the key: nothing is owed.
	whole, _, _ := encodePut("k", nil, row(9, 9), false)
	if state, err := replayOver(row(2, 1), p1, p2, whole); err != nil || !bytes.Equal(state["k"], row(9, 9)) {
		t.Fatalf("patches then a whole put: %v", err)
	}
}

// TestPatchAbsentKeyIsCorrupt: a patch has no meaning without a base.
func TestPatchAbsentKeyIsCorrupt(t *testing.T) {
	patch, _, patched := encodePut("k", bytes.Repeat([]byte("a"), 64), bytes.Repeat([]byte("a"), 65), true)
	if !patched {
		t.Fatal("a one-byte append to a 64-byte value did not patch")
	}
	if _, _, err := newReplay().apply(ScannedRecord{Payload: patch}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("patch for an absent key: %v, want ErrCorrupt", err)
	}
}

// TestOpenPrePatchFixture opens a store directory written by the last
// build before patch records existed (whole puts and deletes only, one
// compaction, a batch rewriting a key twice): both replay paths must
// recover exactly the state that build held.
func TestOpenPrePatchFixture(t *testing.T) {
	row := func(i, rev int) string {
		return fmt.Sprintf(`{"agent_id":"agent-%02d","policy":{"digests":{"/usr/bin/a":["%064x"]}},"attestations":%d}`, i, i, rev)
	}
	want := map[string]string{
		"agent-00": row(0, 3), "agent-02": row(2, 2), "agent-03": row(3, 1),
		"agent-04": row(4, 1), "agent-06": row(6, 1), "empty": "",
	}
	dir := t.TempDir()
	for _, name := range []string{SnapshotFile, JournalFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "prepatch", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string, got map[string][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", how, len(got), len(want))
		}
		for k, v := range want {
			if g, ok := got[k]; !ok || string(g) != v {
				t.Fatalf("%s: %s = %q (present %v), want %q", how, k, g, ok, v)
			}
		}
	}
	loaded, err := LoadState(OS(), dir)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	check("LoadState", loaded)
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	check("Open", s.All())
	// Rows the old journal holds whole are patchable at once; rows only the
	// snapshot holds take one whole put first.
	if err := s.PutBatch([]KV{
		{Key: "agent-00", Value: []byte(row(0, 4))},
		{Key: "agent-03", Value: []byte(row(3, 2))},
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PatchedPuts != 1 || st.WholePuts != 1 {
		t.Fatalf("after one put each of a journaled and a snapshot-only row: %d patched, %d whole, want 1 and 1", st.PatchedPuts, st.WholePuts)
	}
}
