package store

// Segment streaming: the replication-ready face of the write-ahead
// journal. Every acknowledged mutation is assigned a monotonically
// increasing sequence number and its key is retained in a bounded
// in-memory tail, so a cluster peer can follow the store — pull what
// changed since its cursor — without rereading the on-disk journal.
// Replication is whole-row last-writer-wins, so the tail holds no values:
// Since answers with one segment per key touched since the cursor,
// carrying the key's current value (or its deletion). A follower that has
// fallen behind the tail (or that observes a new store epoch after the
// source restarted) falls back to a full snapshot and resumes following
// from the snapshot's sequence.
//
// Sequence numbers are an in-process replication cursor, not a durable
// log position: each Open draws a fresh random Epoch, and followers key
// their cursor on (Epoch, Seq). A restarted source therefore never
// resumes a stale cursor — the epoch mismatch forces the follower through
// the snapshot path, which is always safe because replay is
// last-writer-wins per key.

import (
	"crypto/rand"
	"encoding/binary"
)

// Segment ops, the exported aliases of the journal mutation ops.
const (
	SegPut    = opPut
	SegDelete = opDelete
)

// Segment is one replicable store mutation: the state of Key as of the
// Since call that returned it, numbered with the key's latest mutation.
// Value aliases the store's copy and must not be modified.
type Segment struct {
	Seq   uint64 `json:"seq"`
	Op    byte   `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// defaultFollowBuffer bounds the in-memory segment tail.
const defaultFollowBuffer = 4096

// WithFollowBuffer sets how many recent mutations are retained for
// followers (default 4096). A follower further behind than the buffer is
// redirected to a snapshot. n <= 0 keeps the default.
func WithFollowBuffer(n int) StoreOption {
	return func(s *Store) {
		if n > 0 {
			s.followCap = n
		}
	}
}

// newStoreEpoch draws a random epoch for this open.
func newStoreEpoch() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: a constant epoch only weakens restart detection, and
		// only when the system RNG is broken; replication stays correct
		// because the snapshot path is always safe.
		return 1
	}
	e := binary.BigEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Epoch identifies this open of the store. Followers include it in their
// cursor; a mismatch (the source restarted) forces a snapshot resync.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Seq is the sequence number of the last acknowledged mutation this open
// (0 before the first).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// recordMutationLocked numbers one acknowledged mutation of key and
// appends it to the follow tail; s.mu held.
func (s *Store) recordMutationLocked(key string) {
	s.seq++
	s.tail = append(s.tail, key)
	s.touched[key] = s.seq
	// Evict the oldest retained mutation by advancing tailStart instead of
	// shifting the slice: a shift costs O(followCap) per mutation, which
	// at fleet scale is tens of millions of element copies per sweep. The
	// dead prefix is compacted away in one move once it reaches followCap,
	// so each element is shifted at most once (amortized O(1)) and the
	// visible tail never exceeds followCap mutations.
	if live := len(s.tail) - s.tailStart; live > s.followCap {
		oldest := s.tail[s.tailStart]
		if s.touched[oldest] == s.seq-uint64(live)+1 {
			delete(s.touched, oldest) // no later mutation of this key is retained
		}
		s.tail[s.tailStart] = "" // release the evicted key
		s.tailStart++
	}
	if s.tailStart >= s.followCap {
		n := copy(s.tail, s.tail[s.tailStart:])
		clear(s.tail[n:]) // release refs past the new length
		s.tail = s.tail[:n]
		s.tailStart = 0
	}
}

// Since returns what changed after the given sequence number: one segment
// per key mutated since, in order of each key's latest mutation, carrying
// that key's current value (SegPut) or its absence (SegDelete). However
// many times a key was written, a follower applying the segments holds
// the source's current rows; the last segment's Seq is the store's Seq,
// which is the cursor to resume from. ok is false when the cursor has
// fallen out of the retained tail (or is from a different epoch's
// numbering and overruns this one) — the caller must resync from
// SnapshotAll and resume from its sequence.
func (s *Store) Since(afterSeq uint64) (segs []Segment, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if afterSeq > s.seq {
		return nil, false
	}
	if afterSeq == s.seq {
		return nil, true
	}
	// Oldest retained seq is s.seq - len(live) + 1.
	live := s.tail[s.tailStart:]
	oldest := s.seq - uint64(len(live)) + 1
	if len(live) == 0 || afterSeq < oldest-1 {
		return nil, false
	}
	start := int(afterSeq - (oldest - 1))
	out := make([]Segment, 0, min(len(live)-start, len(s.touched)))
	for i, key := range live[start:] {
		seq := oldest + uint64(start+i)
		if s.touched[key] != seq {
			continue // superseded by a later mutation of the same key
		}
		seg := Segment{Seq: seq, Op: SegDelete, Key: key}
		if v, ok := s.state[key]; ok {
			seg.Op, seg.Value = SegPut, v
		}
		out = append(out, seg)
	}
	return out, true
}

// SnapshotAll returns a copy of the full state together with the sequence
// number it reflects — the resync point for a follower that outran the
// tail or crossed a store epoch.
func (s *Store) SnapshotAll() (map[string][]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.state))
	for k, v := range s.state {
		out[k] = append([]byte(nil), v...)
	}
	return out, s.seq
}
