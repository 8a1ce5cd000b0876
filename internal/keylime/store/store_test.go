package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/store"
)

// openS opens a store at dir, failing the test on error.
func openS(t *testing.T, dir string, opts ...store.StoreOption) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts...)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

func TestStorePutGetDeleteAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir)
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a", []byte("3")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if err := s.Delete("b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	_ = s.Close()

	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	if v, ok := s2.Get("a"); !ok || string(v) != "3" {
		t.Fatalf("a = %q, %v; want 3", v, ok)
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("deleted key b survived reopen")
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestStoreCompactionPreservesStateAndResetsJournal(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir, store.WithAutoCompact(0))
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("agent-%02d", i%7)
		v := fmt.Sprintf("state-%d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.JournalRecords != 0 {
		t.Fatalf("journal not reset after compaction: %+v", st)
	}
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d", st.Compactions)
	}
	// Post-compaction mutations land in the fresh journal.
	if err := s.Put("agent-99", []byte("late")); err != nil {
		t.Fatalf("Put after compact: %v", err)
	}
	want["agent-99"] = "late"
	_ = s.Close()

	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	got := s2.All()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if string(got[k]) != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, store.SnapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
}

func TestStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir, store.WithAutoCompact(8))
	for i := 0; i < 50; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
	_ = s.Close()
	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	if v, _ := s2.Get("k"); string(v) != "v49" {
		t.Fatalf("k = %q, want v49", v)
	}
}

// TestStoreAutoCompactCountsBytes: the trigger is journal bytes against
// live bytes, so a journal of patches — many records, few bytes — is left
// alone where the same number of whole puts compacts.
func TestStoreAutoCompactCountsBytes(t *testing.T) {
	cold := bytes.Repeat([]byte("policy-line "), 400)
	row := func(i int) []byte {
		return append(append([]byte(nil), cold...), fmt.Sprintf("attestations:%06d", i)...)
	}
	s := openS(t, t.TempDir(), store.WithAutoCompact(8))
	defer func() { _ = s.Close() }()
	for i := 0; i < 100; i++ {
		if err := s.Put("k", row(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := s.Stats()
	if st.Compactions != 0 || st.PatchedPuts != 99 || st.JournalRecords != 100 {
		t.Fatalf("100 puts of one 4.8 KB row: %+v, want no compaction", st)
	}
	if st.JournalBytes > 2*int64(len(cold)) {
		t.Fatalf("journal holds %d bytes for one %d-byte row and 99 counter changes", st.JournalBytes, len(cold))
	}
	// Whole puts (each row unlike the last) reach twice the live bytes
	// within a few records.
	for i := 0; i < 12; i++ {
		if err := s.Put("k", bytes.Repeat([]byte{byte('a' + i)}, len(cold))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("whole puts past 2x the live bytes never compacted: %+v", st)
	}
}

func TestStoreCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir)
	_ = s.Put("a", []byte("1"))
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	_ = s.Close()
	// Snapshots are installed atomically; a torn snapshot is corruption
	// the store must refuse, not silently truncate.
	snap := filepath.Join(dir, store.SnapshotFile)
	data, _ := os.ReadFile(snap)
	if err := os.WriteFile(snap, data[:len(data)-3], 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestStoreStaleTempSnapshotRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir)
	_ = s.Put("a", []byte("1"))
	_ = s.Close()
	tmp := filepath.Join(dir, "snapshot.tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	if v, ok := s2.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale snapshot.tmp not removed on open")
	}
}

func TestStoreFailedSyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS()
	s := openS(t, dir, store.WithStoreFS(ffs), store.WithAutoCompact(0))
	if err := s.Put("a", []byte("durable")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Fail the next fsync: the Put must error and must not be visible
	// after recovery, while earlier state survives untouched.
	ffs.FailSyncN = ffs.Counters().Syncs + 1
	if err := s.Put("b", []byte("lost")); err == nil {
		t.Fatal("Put with failing fsync succeeded")
	}
	// The journal rolled back; the store keeps accepting writes.
	if err := s.Put("c", []byte("after")); err != nil {
		t.Fatalf("Put after failed sync: %v", err)
	}
	_ = s.Close()

	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	if _, ok := s2.Get("b"); ok {
		t.Fatal("unacknowledged Put visible after recovery")
	}
	for k, v := range map[string]string{"a": "durable", "c": "after"} {
		if got, ok := s2.Get(k); !ok || string(got) != v {
			t.Fatalf("%s = %q, %v; want %q", k, got, ok, v)
		}
	}
}

func TestStoreShortWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS()
	s := openS(t, dir, store.WithStoreFS(ffs), store.WithAutoCompact(0))
	if err := s.Put("a", []byte("durable")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ffs.FailWriteN = ffs.Counters().Writes + 1
	ffs.ShortWriteBytes = 3
	if err := s.Put("b", []byte("torn-by-short-write")); err == nil {
		t.Fatal("Put with short write succeeded")
	}
	if err := s.Put("c", []byte("after")); err != nil {
		t.Fatalf("Put after short write: %v", err)
	}
	_ = s.Close()

	s2 := openS(t, dir)
	defer func() { _ = s2.Close() }()
	if _, ok := s2.Get("b"); ok {
		t.Fatal("short-written Put visible after recovery")
	}
	if got, ok := s2.Get("c"); !ok || string(got) != "after" {
		t.Fatalf("c = %q, %v", got, ok)
	}
}

func TestStoreValuesAreCopied(t *testing.T) {
	dir := t.TempDir()
	s := openS(t, dir)
	defer func() { _ = s.Close() }()
	v := []byte("original")
	_ = s.Put("k", v)
	v[0] = 'X'
	got, _ := s.Get("k")
	if !bytes.Equal(got, []byte("original")) {
		t.Fatalf("stored value aliased caller buffer: %q", got)
	}
}
