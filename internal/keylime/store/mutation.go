package store

// The mutation codec: what a Store writes into journal and snapshot
// records, and the one decoder that replays it (Open, LoadState and,
// through LoadState, the offline forensic walkers).
//
// Every payload starts
//
//	1 byte   op
//	4 bytes  big-endian key length
//	key
//
// followed by the value (opPut), nothing (opDelete), or for opPatch
//
//	4 bytes  big-endian length of the prefix the result shares with the base
//	4 bytes  big-endian length of the suffix the result shares with the base
//	4 bytes  CRC-32C of the resulting value
//	middle   the bytes between the shared prefix and suffix
//
// where the base is the key's value just before the record and the
// result is base[:prefix] + middle + base[len(base)-suffix:]. A state row
// whose only change is a counter journals as a few dozen bytes instead of
// the whole row. The CRC is over the *result*, so a replay that put a
// patch onto anything but the base it was cut against is detected
// (ErrCorrupt) and yields no state.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Mutation ops in journal/snapshot payloads.
const (
	opPut    = 1
	opDelete = 2
	opPatch  = 3
)

const (
	mutationHeaderSize = 5
	patchHeaderSize    = 12
)

// appendMutationHeader appends op and the length-prefixed key.
func appendMutationHeader(buf []byte, op byte, key string) []byte {
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...)
}

// encodeDelete frames a delete of key.
func encodeDelete(key string) []byte {
	return appendMutationHeader(make([]byte, 0, mutationHeaderSize+len(key)), opDelete, key)
}

// encodePut frames key = value, as a patch against base when the caller
// says one may be used (patchable) and the patch record is under half the
// whole-put record; otherwise as a whole put. It also returns the copy of
// value the store keeps: a whole put's payload already holds the bytes,
// so the kept value aliases it and the row is copied once, not twice.
func encodePut(key string, base, value []byte, patchable bool) (payload, kept []byte, patched bool) {
	if patchable {
		pre := commonPrefix(base, value)
		suf := commonSuffix(base[pre:], value[pre:])
		mid := value[pre : len(value)-suf]
		if 2*(patchHeaderSize+len(mid)) < len(value) {
			payload = make([]byte, 0, mutationHeaderSize+len(key)+patchHeaderSize+len(mid))
			payload = appendMutationHeader(payload, opPatch, key)
			payload = binary.BigEndian.AppendUint32(payload, uint32(pre))
			payload = binary.BigEndian.AppendUint32(payload, uint32(suf))
			payload = binary.BigEndian.AppendUint32(payload, crc32.Checksum(value, crcTable))
			payload = append(payload, mid...)
			return payload, append([]byte(nil), value...), true
		}
	}
	payload = make([]byte, 0, mutationHeaderSize+len(key)+len(value))
	payload = appendMutationHeader(payload, opPut, key)
	payload = append(payload, value...)
	return payload, payload[mutationHeaderSize+len(key):], false
}

// replay rebuilds a state map from snapshot and journal records, applied
// in order — the one mutation decoder. Recovery must cost what the files
// hold, not a row per record: a journal of patches is many records and
// few bytes, so a patch is applied in place where the row keeps its
// length, and its checksum — a pass over the whole row — is owed only by
// the last patch of each key, checked once in finish. That check is the
// one that matters: whatever the records in between did, a final value
// that matches the checksum its last patch carries is the value that was
// acknowledged. Values alias the record payloads (the scanner hands out
// private copies); nothing else may hold them until finish has returned.
type replay struct {
	state map[string][]byte
	// owed maps each key whose value ends in a patch to the checksum that
	// value must have and the frame that says so.
	owed map[string]patchClaim
}

type patchClaim struct {
	sum    uint32
	index  int
	offset int64
}

func newReplay() *replay {
	return &replay{state: make(map[string][]byte), owed: make(map[string]patchClaim)}
}

// apply replays one record and reports what it was.
func (r *replay) apply(rec ScannedRecord) (op byte, key string, err error) {
	p := rec.Payload
	if len(p) < mutationHeaderSize {
		return 0, "", fmt.Errorf("%w: mutation record too short", ErrCorrupt)
	}
	op = p[0]
	klen := binary.BigEndian.Uint32(p[1:5])
	if int64(klen) > int64(len(p)-mutationHeaderSize) {
		return 0, "", fmt.Errorf("%w: mutation key overruns record", ErrCorrupt)
	}
	key = string(p[mutationHeaderSize : mutationHeaderSize+klen])
	body := p[mutationHeaderSize+klen:]
	switch op {
	case opPut:
		r.state[key] = body
		delete(r.owed, key)
	case opDelete:
		delete(r.state, key)
		delete(r.owed, key)
	case opPatch:
		base, ok := r.state[key]
		if !ok {
			return 0, "", fmt.Errorf("%w: patch for absent key %q", ErrCorrupt, key)
		}
		value, sum, err := applyPatch(base, body)
		if err != nil {
			return 0, "", fmt.Errorf("key %q: %w", key, err)
		}
		r.state[key] = value
		r.owed[key] = patchClaim{sum: sum, index: rec.Index, offset: rec.Offset}
	default:
		return 0, "", fmt.Errorf("%w: unknown op %d", ErrCorrupt, op)
	}
	return op, key, nil
}

// finish checks every patched value against the checksum its last patch
// recorded and returns the state. A mismatch names that patch's frame
// (the earliest, when several keys fail).
func (r *replay) finish() (map[string][]byte, error) {
	var bad *ReplayError
	for key, claim := range r.owed {
		if crc32.Checksum(r.state[key], crcTable) == claim.sum || (bad != nil && bad.Index < claim.index) {
			continue
		}
		bad = &ReplayError{Index: claim.index, Offset: claim.offset,
			Err: fmt.Errorf("key %q: %w: patched value fails its checksum (wrong base)", key, ErrCorrupt)}
	}
	if bad != nil {
		return nil, bad
	}
	return r.state, nil
}

// applyPatch rebuilds a value from its base and a patch body, in place
// when the lengths agree, and returns it with the checksum it must have.
func applyPatch(base, body []byte) (value []byte, sum uint32, err error) {
	if len(body) < patchHeaderSize {
		return nil, 0, fmt.Errorf("%w: patch record too short", ErrCorrupt)
	}
	pre := int64(binary.BigEndian.Uint32(body[0:4]))
	suf := int64(binary.BigEndian.Uint32(body[4:8]))
	sum = binary.BigEndian.Uint32(body[8:12])
	mid := body[patchHeaderSize:]
	if pre+suf > int64(len(base)) {
		return nil, 0, fmt.Errorf("%w: patch keeps %d+%d bytes of a %d-byte base", ErrCorrupt, pre, suf, len(base))
	}
	if pre+int64(len(mid))+suf == int64(len(base)) {
		copy(base[pre:], mid)
		return base, sum, nil
	}
	value = make([]byte, 0, pre+int64(len(mid))+suf)
	value = append(value, base[:pre]...)
	value = append(value, mid...)
	value = append(value, base[int64(len(base))-suf:]...)
	return value, sum, nil
}

// commonPrefix is the number of leading bytes a and b share, compared a
// word at a time: two 47 KB rows differing in one counter are the common
// case and a byte loop would cost more than the write it saves.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix is the number of trailing bytes a and b share.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[len(a)-i-8:]) ^ binary.LittleEndian.Uint64(b[len(b)-i-8:])
		if x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
