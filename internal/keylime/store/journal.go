package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Journal file format:
//
//	8 bytes   magic "KLJRNL01"
//	records:  4 bytes big-endian payload length
//	          4 bytes CRC-32C (Castagnoli) of the payload
//	          payload
//
// An append is a single Write call — one frame for Append, a vector of
// frames for AppendBatch — followed (by default) by an fsync, so a crash
// can tear the file only inside that one write. Recovery truncates a
// torn or checksum-failing tail instead of failing open: appends are
// sequential and synced, so anything after the first invalid record was
// never acknowledged to a caller. A torn batched write therefore
// recovers to a prefix of the batch: frames land in append order, and
// the scan stops at the first torn frame.

// journalMagic identifies (and versions) the journal file format.
const journalMagic = "KLJRNL01"

const (
	journalHeaderSize = len(journalMagic)
	recordHeaderSize  = 8
	// maxRecordSize guards the scanner against garbage lengths.
	maxRecordSize = 1 << 30
)

// Errors.
var (
	// ErrCorrupt reports damage recovery must not paper over: a bad magic
	// number, or an invalid record in an atomically-written snapshot.
	ErrCorrupt = errors.New("store: corrupt file")
	// ErrBroken reports a journal disabled by an earlier append failure
	// that could not be rolled back; the on-disk tail state is unknown
	// until the journal is reopened and recovered.
	ErrBroken = errors.New("store: journal broken by failed append")
	// ErrTooLarge reports a record payload over the format limit.
	ErrTooLarge = errors.New("store: record too large")
	// ErrClosed reports an append against a journal whose group-commit
	// pipeline has been shut down by Close.
	ErrClosed = errors.New("store: journal closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecoveryInfo describes what opening a journal found on disk.
type RecoveryInfo struct {
	// Records is how many intact records were recovered.
	Records int
	// TornBytes is how many trailing bytes were truncated as a torn or
	// corrupt tail (0 for a clean journal).
	TornBytes int64
}

// Journal is an append-only, CRC-checksummed record log. Appends are
// safe for concurrent use; Reset, Rewrite, and Close must not race other
// calls (callers — Store, the outbox, the audit sink — already serialize
// those maintenance paths).
type Journal struct {
	fsys FS
	path string

	// mu guards the file handle and the acknowledged offset. It is the
	// innermost lock: nothing is called under it but the FS.
	mu       sync.Mutex
	f        File
	size     int64
	records  int
	sync     bool
	broken   bool
	recovery RecoveryInfo

	// gc, when non-nil, routes appends through the background
	// group-commit pipeline (see groupcommit.go).
	gc *groupCommitter
}

// JournalOption configures OpenJournal.
type JournalOption func(*Journal)

// WithJournalSync controls fsync-per-append (default true). Turning it
// off trades the no-acked-record-lost guarantee for write latency.
func WithJournalSync(on bool) JournalOption {
	return func(j *Journal) { j.sync = on }
}

// OpenJournal opens (creating if absent) the journal at path, recovers
// its record payloads, and truncates any torn tail. The returned payload
// slices are owned by the caller.
func OpenJournal(fsys FS, path string, opts ...JournalOption) (*Journal, [][]byte, error) {
	j := &Journal{fsys: fsys, path: path, sync: true}
	for _, opt := range opts {
		opt(j)
	}
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: reading journal %s: %w", path, err)
	}
	recs, info, err := ScanRecords(data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	validLen := info.ValidLen
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = r.Payload
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening journal %s: %w", path, err)
	}
	j.f = f
	if int64(len(data)) > validLen {
		if err := f.Truncate(validLen); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: syncing truncated %s: %w", path, err)
		}
	}
	j.size = validLen
	if validLen == 0 {
		if err := j.writeAll([]byte(journalMagic)); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: writing journal header %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("store: syncing journal header %s: %w", path, err)
		}
		j.size = int64(journalHeaderSize)
	}
	j.records = len(payloads)
	j.recovery = RecoveryInfo{Records: len(payloads), TornBytes: int64(len(data)) - validLen}
	if j.recovery.TornBytes < 0 {
		j.recovery.TornBytes = 0
	}
	if j.gc != nil {
		j.gc.start(j)
	}
	return j, payloads, nil
}

// encodeRecord frames one payload.
func encodeRecord(payload []byte) []byte {
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderSize:], payload)
	return buf
}

// Recovery reports what OpenJournal found.
func (j *Journal) Recovery() RecoveryInfo { return j.recovery }

// Records is the number of records currently in the journal.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Size is the current valid length in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Append frames, writes, and (unless disabled) fsyncs one record. The
// record is durable — and only then acknowledged — when Append returns
// nil. On a failed write the journal rolls the file back to the last
// acknowledged record; if even that fails the journal is marked broken
// and every further append errors until it is reopened.
//
// In group-commit mode (WithGroupCommit) the record is enqueued and the
// call blocks until the committer has flushed the batch carrying it —
// the durable-when-returned contract is identical, only the fsync is
// shared with the other records in the batch.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecordSize {
		return ErrTooLarge
	}
	if j.gc != nil {
		return <-j.gc.enqueue([][]byte{payload})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendBatchLocked([][]byte{payload})
}

// AppendBatch frames all payloads into one write vector, writes it with
// a single Write call, and (unless disabled) issues one fsync for the
// whole batch. When AppendBatch returns nil, every record in the batch
// is durable; on error, none was acknowledged. A crash mid-batch is
// prefix-durable: frames reach the disk in order and recovery truncates
// at the first torn frame, so any recovered subset is a prefix of the
// batch, never an arbitrary or reordered one.
func (j *Journal) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return ErrTooLarge
		}
	}
	if j.gc != nil {
		return <-j.gc.enqueue(payloads)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendBatchLocked(payloads)
}

// AppendBatchAsync reserves the batch's position in the journal and
// returns a channel delivering its durability result. The position is
// claimed synchronously — two calls ordered by the caller keep that
// order on disk — while the wait for the fsync happens on the channel,
// letting the caller release its own locks so concurrent batches can
// share a group commit. Without group-commit mode the append runs
// synchronously and the returned channel is already resolved.
func (j *Journal) AppendBatchAsync(payloads [][]byte) <-chan error {
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			ch := make(chan error, 1)
			ch <- ErrTooLarge
			return ch
		}
	}
	if j.gc != nil && len(payloads) > 0 {
		return j.gc.enqueue(payloads)
	}
	ch := make(chan error, 1)
	if len(payloads) == 0 {
		ch <- nil
		return ch
	}
	j.mu.Lock()
	ch <- j.appendBatchLocked(payloads)
	j.mu.Unlock()
	return ch
}

// appendBatchLocked writes one batch under j.mu: a single write of the
// concatenated frames, then one fsync.
func (j *Journal) appendBatchLocked(payloads [][]byte) error {
	if j.broken {
		return ErrBroken
	}
	total := 0
	for _, p := range payloads {
		total += recordHeaderSize + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		var hdr [recordHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(p)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(p, crcTable))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	if err := j.writeAll(buf); err != nil {
		j.rollbackLocked()
		return fmt.Errorf("store: appending %d-record batch: %w", len(payloads), err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			// The bytes may or may not be durable; roll back so the
			// in-memory accounting only ever covers acknowledged records.
			j.rollbackLocked()
			return fmt.Errorf("store: syncing %d-record batch: %w", len(payloads), err)
		}
	}
	j.size += int64(total)
	j.records += len(payloads)
	return nil
}

// rollbackLocked restores the file to the last acknowledged frame after
// a failed append. A short or failed write can leave any prefix of the
// new frames in the file while the in-memory offset still points at the
// last good frame — if that tail survived, a later successful append
// would interleave a fresh frame after torn bytes and the journal would
// stop decoding at the tear, silently hiding the new record. So the
// file is truncated back to the acknowledged offset and the truncation
// itself is fsynced; if either step fails the on-disk tail is unknown
// and the journal is marked broken — every further append refuses until
// the journal is reopened and recovered.
func (j *Journal) rollbackLocked() {
	if err := j.f.Truncate(j.size); err != nil {
		j.broken = true
		return
	}
	if err := j.f.Sync(); err != nil {
		j.broken = true
	}
}

// Sync flushes the journal file. In group-commit mode it first drains
// any batches waiting on the committer.
func (j *Journal) Sync() error {
	if j.gc != nil {
		j.gc.flush()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return ErrBroken
	}
	return j.f.Sync()
}

// Reset truncates the journal back to an empty (header-only) state —
// used after a snapshot compaction has made its records redundant. In
// group-commit mode any batches still queued are flushed first (they
// were enqueued before the caller decided to reset, so they must reach
// their waiters' acknowledgment path before the file is emptied).
func (j *Journal) Reset() error {
	if j.gc != nil {
		j.gc.flush()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return ErrBroken
	}
	if err := j.f.Truncate(int64(journalHeaderSize)); err != nil {
		j.broken = true
		return fmt.Errorf("store: resetting journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken = true
		return fmt.Errorf("store: syncing reset journal: %w", err)
	}
	j.size = int64(journalHeaderSize)
	j.records = 0
	return nil
}

// Rewrite atomically replaces the journal contents with the given
// records: they are written to a temp file, fsynced, renamed over the
// journal, and the directory synced. Used for outbox compaction, where
// the surviving records are a filtered subset rather than a snapshot.
// In group-commit mode queued batches are flushed first, so a record
// acknowledged before Rewrite was called is never silently dropped by
// the replacement.
func (j *Journal) Rewrite(payloads [][]byte) error {
	if j.gc != nil {
		j.gc.flush()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp := j.path + ".tmp"
	if err := writeFileAtomic(j.fsys, tmp, j.path, journalFileBytes(payloads)); err != nil {
		return fmt.Errorf("store: rewriting journal: %w", err)
	}
	// Reopen the append handle on the new inode.
	_ = j.f.Close()
	f, err := j.fsys.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		j.broken = true
		return fmt.Errorf("store: reopening rewritten journal: %w", err)
	}
	j.f = f
	j.broken = false
	j.size = int64(journalHeaderSize)
	j.records = 0
	for _, p := range payloads {
		j.size += int64(recordHeaderSize + len(p))
		j.records++
	}
	return nil
}

// journalFileBytes builds a complete journal file image.
func journalFileBytes(payloads [][]byte) []byte {
	buf := []byte(journalMagic)
	for _, p := range payloads {
		buf = append(buf, encodeRecord(p)...)
	}
	return buf
}

// Close flushes the group-commit pipeline (when enabled) and releases
// the file handle. Appends racing Close either complete durably or
// return ErrClosed — none is silently dropped.
func (j *Journal) Close() error {
	if j.gc != nil {
		j.gc.shutdown()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// writeAll writes the whole buffer, surfacing short writes as errors.
func (j *Journal) writeAll(buf []byte) error {
	n, err := j.f.Write(buf)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
	}
	return nil
}

// WriteFileAtomic durably replaces path with data via the atomic-replace
// idiom: write path+".tmp", fsync, rename over path, fsync the directory.
// A crash leaves either the old file or the new one, never a torn mix.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	return writeFileAtomic(fsys, path+".tmp", path, data)
}

// writeFileAtomic writes data to tmpPath, fsyncs it, renames it to path,
// and fsyncs the containing directory — the atomic-replace idiom. On any
// error the temp file is removed best-effort.
func writeFileAtomic(fsys FS, tmpPath, path string, data []byte) error {
	f, err := fsys.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = fsys.Remove(tmpPath)
		return werr
	}
	if err := fsys.Rename(tmpPath, path); err != nil {
		_ = fsys.Remove(tmpPath)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
