package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
)

// Store is a crash-safe keyed store: a map[string][]byte whose mutations
// are journaled before they are acknowledged, periodically compacted into
// an atomic snapshot. The verifier uses it for per-agent state rows
// (key = agent ID, value = serialized AgentState), journaling only the
// rows dirtied by each sweep instead of marshaling the whole fleet.
//
// Layout under the store directory:
//
//	snapshot.dat  — journal-framed put records, replaced atomically
//	journal.wal   — mutations since the snapshot
//	snapshot.tmp  — in-flight compaction (removed on open)
//
// Recovery = strict-parse the snapshot (it only ever appears via rename,
// so it is never torn), then replay the journal with torn-tail
// truncation. A put is journaled as a patch against the key's previous
// value when that is the smaller record (see mutation.go), but only once
// the current journal file already holds a whole put for the key: the
// journal's records for a key then never depend on the snapshot, so a
// crash between the snapshot rename and the journal reset — which leaves
// a stale journal over a newer snapshot — replays each touched key from
// its own whole put forward and converges to the snapshot's state.
type Store struct {
	fsys FS
	dir  string

	mu    sync.Mutex
	state map[string][]byte
	// based holds the keys the current journal file has a whole put for
	// (and no later delete): the only keys whose next put may be a patch.
	// Emptied with the journal on compaction.
	based map[string]struct{}
	// liveBytes is the size of the snapshot the state would compact to.
	liveBytes   int64
	journal     *Journal
	autoCompact int
	compactions int
	wholePuts   int
	patchedPuts int
	recovery    RecoveryInfo

	// Follow/replication state (see follow.go): epoch identifies this
	// open, seq numbers acknowledged mutations, tail names the keys of the
	// most recent followCap of them for streaming to cluster standbys, and
	// touched maps each of those keys to its latest seq.
	epoch     uint64
	seq       uint64
	tail      []string
	tailStart int // first live element of tail; trimmed lazily, see recordMutationLocked
	touched   map[string]uint64
	followCap int
}

// Store file names.
const (
	SnapshotFile    = "snapshot.dat"
	JournalFile     = "journal.wal"
	snapshotTmpFile = "snapshot.tmp"
)

// StoreOption configures Open.
type StoreOption func(*Store)

// WithAutoCompact compacts the journal into a snapshot whenever it holds
// more than n records and more than twice the bytes of the live state.
// n <= 0 disables auto-compaction (Compact can still be called
// explicitly). Default 4096.
func WithAutoCompact(n int) StoreOption {
	return func(s *Store) { s.autoCompact = n }
}

// WithStoreFS sets the filesystem (default the real one).
func WithStoreFS(fsys FS) StoreOption {
	return func(s *Store) { s.fsys = fsys }
}

// Open opens (creating if needed) the store rooted at dir and recovers
// its state: latest snapshot plus journal suffix.
func Open(dir string, opts ...StoreOption) (*Store, error) {
	s := &Store{
		fsys:        OS(),
		dir:         dir,
		based:       make(map[string]struct{}),
		autoCompact: 4096,
		epoch:       newStoreEpoch(),
		touched:     make(map[string]uint64),
		followCap:   defaultFollowBuffer,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// A leftover temp snapshot is an abandoned compaction from before a
	// crash: the rename never happened, so it holds nothing durable.
	if _, err := s.fsys.Stat(filepath.Join(dir, snapshotTmpFile)); err == nil {
		if err := s.fsys.Remove(filepath.Join(dir, snapshotTmpFile)); err != nil {
			return nil, fmt.Errorf("store: removing stale %s: %w", snapshotTmpFile, err)
		}
	}
	r := newReplay()
	if err := r.loadSnapshot(s.fsys, dir); err != nil {
		return nil, err
	}
	j, payloads, err := OpenJournal(s.fsys, filepath.Join(dir, JournalFile))
	if err != nil {
		return nil, err
	}
	offset := int64(journalHeaderSize)
	for i, p := range payloads {
		op, key, err := r.apply(ScannedRecord{Index: i, Offset: offset, Payload: p})
		if err != nil {
			_ = j.Close()
			return nil, fmt.Errorf("store: journal replay: %w", &ReplayError{Index: i, Offset: offset, Err: err})
		}
		switch op {
		case opPut:
			s.based[key] = struct{}{}
		case opDelete:
			delete(s.based, key)
		}
		offset += int64(recordHeaderSize + len(p))
	}
	if s.state, err = r.finish(); err != nil {
		_ = j.Close()
		return nil, fmt.Errorf("store: journal replay: %w", err)
	}
	for k, v := range s.state {
		s.liveBytes += rowBytes(k, v)
	}
	s.journal = j
	s.recovery = j.Recovery()
	return s, nil
}

// loadSnapshot strict-parses dir's snapshot, if there is one. Snapshots
// are written whole and installed by rename; a torn or trailing-garbage
// snapshot is corruption, not a crash.
func (r *replay) loadSnapshot(fsys FS, dir string) error {
	snapPath := filepath.Join(dir, SnapshotFile)
	data, err := fsys.ReadFile(snapPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	recs, info, serr := ScanRecords(data)
	if serr != nil || info.ValidLen != info.FileSize {
		return fmt.Errorf("store: %w: snapshot %s", ErrCorrupt, snapPath)
	}
	for _, rec := range recs {
		if _, _, err := r.apply(rec); err != nil {
			return fmt.Errorf("store: snapshot %s: %w", snapPath, err)
		}
	}
	return nil
}

// rowBytes is what one key costs in a snapshot: a framed whole put.
func rowBytes(key string, value []byte) int64 {
	return int64(recordHeaderSize + mutationHeaderSize + len(key) + len(value))
}

// Put durably records key = value. When Put returns nil the mutation has
// been journaled and fsynced; a crash at any later point preserves it.
func (s *Store) Put(key string, value []byte) error {
	return s.PutBatch([]KV{{Key: key, Value: value}})
}

// Delete durably removes a key. Deleting an absent key is a no-op that
// still journals (replay stays idempotent either way).
func (s *Store) Delete(key string) error {
	return s.PutBatch([]KV{{Key: key, Delete: true}})
}

// KV is one mutation in a PutBatch: a put of Value under Key, or a
// delete of Key when Delete is set.
type KV struct {
	Key    string
	Value  []byte
	Delete bool
}

// PutBatch durably records a batch of mutations under a single journal
// append — one framed write vector, one fsync — instead of one fsync
// per row. When PutBatch returns nil every mutation in the batch is
// durable. On a crash mid-write the journal recovers an in-order prefix
// of the batch, so callers that need all-or-nothing semantics must
// order a commit marker last (see cluster replication) or tolerate
// partial application on replay (the verifier's per-agent rows are
// independent, so a prefix is just a smaller sweep).
func (s *Store) PutBatch(ops []KV) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// staged is each touched key's value as of the ops encoded so far, so a
	// key written twice in the batch patches against its in-batch
	// predecessor (which replay will have applied first) and a put after
	// an in-batch delete has no base. Nothing reaches s.state until the
	// journal has acknowledged the batch.
	type stagedRow struct {
		value     []byte
		present   bool
		patchable bool
	}
	staged := make(map[string]stagedRow, len(ops))
	payloads := make([][]byte, len(ops))
	whole, patched := 0, 0
	for i, op := range ops {
		if op.Delete {
			payloads[i] = encodeDelete(op.Key)
			staged[op.Key] = stagedRow{}
			continue
		}
		cur, ok := staged[op.Key]
		if !ok {
			cur.value, cur.present = s.state[op.Key]
			_, cur.patchable = s.based[op.Key]
		}
		payload, kept, isPatch := encodePut(op.Key, cur.value, op.Value, cur.present && cur.patchable)
		if isPatch {
			patched++
		} else {
			whole++
		}
		payloads[i] = payload
		staged[op.Key] = stagedRow{value: kept, present: true, patchable: true}
	}
	if err := s.journal.AppendBatch(payloads); err != nil {
		return err
	}
	for key, row := range staged {
		if old, ok := s.state[key]; ok {
			s.liveBytes -= rowBytes(key, old)
		}
		if row.present {
			s.state[key] = row.value
			s.based[key] = struct{}{}
			s.liveBytes += rowBytes(key, row.value)
		} else {
			delete(s.state, key)
			delete(s.based, key)
		}
	}
	s.wholePuts += whole
	s.patchedPuts += patched
	for _, op := range ops {
		s.recordMutationLocked(op.Key)
	}
	return s.maybeCompactLocked()
}

// Get returns the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.state[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len is the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.state)
}

// All returns a copy of the full state.
func (s *Store) All() map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.state))
	for k, v := range s.state {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// maybeCompactLocked runs a compaction when the journal has outgrown the
// live state.
func (s *Store) maybeCompactLocked() error {
	if s.autoCompact <= 0 || s.journal.Records() <= s.autoCompact {
		return nil
	}
	if s.journal.Size()-int64(journalHeaderSize) <= 2*s.liveBytes {
		return nil
	}
	return s.compactLocked()
}

// Compact writes the current state as a new snapshot (temp file, fsync,
// rename, directory sync) and resets the journal. A crash before the
// rename leaves the old snapshot + full journal; a crash between the
// rename and the reset leaves the new snapshot + a journal whose replay
// converges to it (see Store). No window loses an acknowledged mutation.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	payloads := make([][]byte, 0, len(s.state))
	for k, v := range s.state {
		payload, _, _ := encodePut(k, nil, v, false)
		payloads = append(payloads, payload)
	}
	tmp := filepath.Join(s.dir, snapshotTmpFile)
	snap := filepath.Join(s.dir, SnapshotFile)
	if err := writeFileAtomic(s.fsys, tmp, snap, journalFileBytes(payloads)); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	s.compactions++
	// The journal is about to be empty: every key's next put is whole.
	clear(s.based)
	return s.journal.Reset()
}

// Stats describes the store's persistence state.
type Stats struct {
	Keys           int
	JournalRecords int
	JournalBytes   int64
	Compactions    int
	// WholePuts / PatchedPuts count the puts journaled this open as a
	// whole value and as a patch against the previous one.
	WholePuts   int
	PatchedPuts int
	// Recovery is what the last Open found (intact records, torn bytes
	// truncated).
	Recovery RecoveryInfo
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Keys:           len(s.state),
		JournalRecords: s.journal.Records(),
		JournalBytes:   s.journal.Size(),
		Compactions:    s.compactions,
		WholePuts:      s.wholePuts,
		PatchedPuts:    s.patchedPuts,
		Recovery:       s.recovery,
	}
}

// Close releases the journal handle. State already acknowledged remains
// durable; Close performs no extra flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}
