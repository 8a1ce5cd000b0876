package store

import (
	"bytes"
	"fmt"
	"testing"
)

// TestFollowSeqMonotonic checks the coalesced follow contract: every
// acknowledged mutation advances the sequence number, and Since answers
// with one segment per key touched since the cursor — the key's current
// value or its deletion — in ascending seq order ending at Seq.
func TestFollowSeqMonotonic(t *testing.T) {
	s, err := Open(t.TempDir(), WithFollowBuffer(16))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	if got := s.Seq(); got != 0 {
		t.Fatalf("fresh store Seq = %d, want 0", got)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // seq 1..4
		must(s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}))
	}
	for i := 0; i < 5; i++ { // seq 5..9: N writes to one key
		must(s.Put("k1", []byte{0x10, byte(i)}))
	}
	must(s.Delete("k0"))              // seq 10
	must(s.Delete("k2"))              // seq 11
	must(s.Put("k2", []byte("back"))) // seq 12: delete-then-put
	if got := s.Seq(); got != 12 {
		t.Fatalf("Seq = %d, want 12", got)
	}
	want := []Segment{
		{Seq: 4, Op: SegPut, Key: "k3", Value: []byte{3}},
		{Seq: 9, Op: SegPut, Key: "k1", Value: []byte{0x10, 4}},
		{Seq: 10, Op: SegDelete, Key: "k0"},
		{Seq: 12, Op: SegPut, Key: "k2", Value: []byte("back")},
	}
	check := func(after uint64, want []Segment) {
		t.Helper()
		segs, ok := s.Since(after)
		if !ok {
			t.Fatalf("Since(%d) fell out of tail", after)
		}
		if len(segs) != len(want) {
			t.Fatalf("Since(%d) = %+v, want %+v", after, segs, want)
		}
		for i, seg := range segs {
			w := want[i]
			if seg.Seq != w.Seq || seg.Op != w.Op || seg.Key != w.Key || !bytes.Equal(seg.Value, w.Value) {
				t.Fatalf("Since(%d)[%d] = %+v, want %+v", after, i, seg, w)
			}
			if i > 0 && seg.Seq <= segs[i-1].Seq {
				t.Fatalf("Since(%d) seqs not ascending: %+v", after, segs)
			}
		}
		if last := segs[len(segs)-1].Seq; last != s.Seq() {
			t.Fatalf("Since(%d) ends at seq %d, want the store's Seq %d", after, last, s.Seq())
		}
	}
	check(0, want)
	// A cursor past k3's last write but inside k1's run still gets k1 once,
	// with its final value.
	check(6, want[1:])
	// Writes that push a cursor off the 16-mutation tail force a resync.
	for i := 0; i < 8; i++ { // seq 13..20; oldest retained is now 5
		must(s.Put("k1", []byte{0x20, byte(i)}))
	}
	if _, ok := s.Since(3); ok {
		t.Fatalf("Since(cursor off the tail) reported ok, want snapshot fallback")
	}
	check(4, []Segment{
		{Seq: 10, Op: SegDelete, Key: "k0"},
		{Seq: 12, Op: SegPut, Key: "k2", Value: []byte("back")},
		{Seq: 20, Op: SegPut, Key: "k1", Value: []byte{0x20, 7}},
	})
}

// TestFollowSincePartial checks that a cursor mid-tail returns exactly the
// suffix, and a current cursor returns nothing (still ok).
func TestFollowSincePartial(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	segs, ok := s.Since(3)
	if !ok || len(segs) != 2 {
		t.Fatalf("Since(3) = %d segments ok=%v, want 2 true", len(segs), ok)
	}
	if segs[0].Seq != 4 || segs[1].Seq != 5 {
		t.Fatalf("Since(3) seqs = %d,%d, want 4,5", segs[0].Seq, segs[1].Seq)
	}
	if segs, ok := s.Since(5); !ok || len(segs) != 0 {
		t.Fatalf("Since(current) = %d segments ok=%v, want 0 true", len(segs), ok)
	}
	// A cursor ahead of the source (stale epoch numbering) forces a resync.
	if _, ok := s.Since(6); ok {
		t.Fatalf("Since(ahead of seq) reported ok, want snapshot fallback")
	}
}

// TestFollowTailBounded checks that the tail is trimmed to the configured
// buffer and that an outrun cursor is redirected to the snapshot path.
func TestFollowTailBounded(t *testing.T) {
	s, err := Open(t.TempDir(), WithFollowBuffer(4))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Oldest retained is seq 7 (10 - 4 + 1); a cursor at 6 is the edge.
	if segs, ok := s.Since(6); !ok || len(segs) != 4 {
		t.Fatalf("Since(6) = %d segments ok=%v, want 4 true", len(segs), ok)
	}
	if _, ok := s.Since(5); ok {
		t.Fatalf("Since(outrun) reported ok, want snapshot fallback")
	}
	snap, seq := s.SnapshotAll()
	if seq != 10 || len(snap) != 10 {
		t.Fatalf("SnapshotAll = %d rows at seq %d, want 10 rows at 10", len(snap), seq)
	}
	// Resume following from the snapshot's seq.
	if err := s.Put("k10", nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if segs, ok := s.Since(seq); !ok || len(segs) != 1 || segs[0].Key != "k10" {
		t.Fatalf("Since(snapshot seq) = %+v ok=%v, want the one new segment", segs, ok)
	}
}

// TestFollowEpochChangesAcrossReopen checks that a reopened store presents
// a new epoch and a reset sequence, forcing followers through resync.
func TestFollowEpochChangesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e1 := s.Epoch()
	if e1 == 0 {
		t.Fatalf("Epoch = 0, want nonzero")
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s2.Close() }()
	if s2.Epoch() == e1 {
		t.Fatalf("reopened store kept epoch %d", e1)
	}
	// Recovery replay does not count toward the follow cursor: followers
	// resync via snapshot on epoch change, not by replaying recovery.
	if got := s2.Seq(); got != 0 {
		t.Fatalf("reopened store Seq = %d, want 0", got)
	}
	if v, ok := s2.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("reopened store lost k=v")
	}
}
