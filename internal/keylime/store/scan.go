package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
)

// ScannedRecord is one intact journal record together with where its
// frame starts in the file — the byte offset forensic tools (the
// chain-of-custody walker, verify-chain) report when they pinpoint the
// first tampered record.
type ScannedRecord struct {
	// Index is the record's position in the journal (0-based).
	Index int
	// Offset is the file offset of the record's frame header.
	Offset int64
	// Payload is the record body (a private copy).
	Payload []byte
}

// ScanInfo summarizes a read-only journal scan.
type ScanInfo struct {
	// FileSize is the total length of the file on disk.
	FileSize int64
	// ValidLen is the length of the intact prefix; anything past it is a
	// torn or corrupt tail.
	ValidLen int64
}

// ScanRecords is the one frame walker: it walks raw journal bytes and
// returns every intact record with its byte offset. It never opens the
// file for append or truncates anything (OpenJournal does that, with what
// this reports), so it is safe to point at a live journal owned by
// another process. A torn or checksum-failing tail ends the scan
// (reflected in ScanInfo.ValidLen), never as an error: appends are
// sequential and synced, so nothing past the first invalid record was
// acknowledged. Only a corrupt header (wrong magic) is an error.
func ScanRecords(data []byte) ([]ScannedRecord, ScanInfo, error) {
	info := ScanInfo{FileSize: int64(len(data))}
	if len(data) == 0 {
		return nil, info, nil
	}
	if len(data) < journalHeaderSize {
		// Torn header: the process died while creating the file. Nothing
		// was ever acknowledged, so scan as empty.
		if string(data) == journalMagic[:len(data)] {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("%w: bad journal header", ErrCorrupt)
	}
	if string(data[:journalHeaderSize]) != journalMagic {
		return nil, info, fmt.Errorf("%w: bad journal magic", ErrCorrupt)
	}
	var recs []ScannedRecord
	off := int64(journalHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < recordHeaderSize {
			break // torn record header
		}
		length := binary.BigEndian.Uint32(rest[:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if length > maxRecordSize || int64(len(rest)) < recordHeaderSize+int64(length) {
			break // garbage length or torn payload
		}
		payload := rest[recordHeaderSize : recordHeaderSize+int64(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			break // torn write inside the payload
		}
		recs = append(recs, ScannedRecord{
			Index:   len(recs),
			Offset:  off,
			Payload: append([]byte(nil), payload...),
		})
		off += recordHeaderSize + int64(length)
	}
	info.ValidLen = off
	return recs, info, nil
}

// ReplayError reports the journal record a replay (Open, LoadState) could
// not apply: its frame is intact but its mutation is not — an unknown op,
// a patch that does not rebuild its checksummed result. Index and Offset
// locate the frame, so a forensic walk can name the record instead of
// failing as a whole.
type ReplayError struct {
	Index  int
	Offset int64
	Err    error
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("record %d at offset %d: %v", e.Index, e.Offset, e.Err)
}

func (e *ReplayError) Unwrap() error { return e.Err }

// ScanFile reads and scans the journal at path via ScanRecords. A
// missing file scans as empty only if the FS reports it so; callers
// that care should Stat first.
func ScanFile(fsys FS, path string) ([]ScannedRecord, ScanInfo, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, ScanInfo{}, fmt.Errorf("store: reading %s: %w", path, err)
	}
	recs, info, err := ScanRecords(data)
	if err != nil {
		return recs, info, fmt.Errorf("store: %s: %w", path, err)
	}
	return recs, info, nil
}

// LoadState replays a Store directory (snapshot + journal) read-only
// and returns its key/value state, without taking the append lock or
// truncating a torn tail — safe on a live store owned by another
// process, and exactly what offline forensic tools (verify-chain) need
// to inspect journaled state the way recovery would see it.
func LoadState(fsys FS, dir string) (map[string][]byte, error) {
	r := newReplay()
	if err := r.loadSnapshot(fsys, dir); err != nil {
		return nil, err
	}
	jPath := filepath.Join(dir, JournalFile)
	data, err := fsys.ReadFile(jPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	recs, _, err := ScanRecords(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", jPath, err)
	}
	for _, rec := range recs {
		if _, _, err := r.apply(rec); err != nil {
			return nil, fmt.Errorf("store: journal %s: %w", jPath, &ReplayError{Index: rec.Index, Offset: rec.Offset, Err: err})
		}
	}
	state, err := r.finish()
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", jPath, err)
	}
	return state, nil
}
