package rollout

// Offline rollout-state verification for the chain-of-custody walk.
// The rollout store's journaled record is what a restarted verifier
// trusts to decide which policy to install fleet-wide; verify-chain
// re-checks its sealed bundle without booting a controller (and without
// touching the store — the walk is read-only).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/keylime/dsse"
	"repro/internal/keylime/store"
)

// StateReport is the result of verifying a rollout store directory.
type StateReport struct {
	// InFlight is false when no rollout record is journaled (nothing to
	// verify — an idle controller).
	InFlight bool   `json:"in_flight"`
	Gen      uint64 `json:"gen,omitempty"`
	Stage    Stage  `json:"stage,omitempty"`
	// Signed reports whether the record carries a sealed bundle at all.
	Signed bool `json:"signed"`
	// Class/Detail name the first problem ("" when the state verifies):
	// "bad-record" for an undecodable record or a journal record that
	// does not replay (a patch that fails its result checksum),
	// "signature-failure" for a bundle that is missing, mis-sealed, or
	// disagrees with the record, "torn-frame" for journal bytes past the
	// last intact frame.
	Class  string `json:"class,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Index and Offset locate the journal frame a bad-record or torn-frame
	// was found at; both are -1 when the problem is in the record's
	// content rather than at a frame.
	Index  int   `json:"index"`
	Offset int64 `json:"offset"`
}

// OK reports whether the rollout state verified.
func (r *StateReport) OK() bool { return r.Class == "" }

// VerifyState loads the rollout store at dir read-only and verifies the
// in-flight record's sealed bundle against kr. kr nil skips signature
// checks (the record is still decoded and described).
func VerifyState(fsys store.FS, dir string, kr *dsse.Keyring) (*StateReport, error) {
	rep := &StateReport{Index: -1, Offset: -1}
	state, err := store.LoadState(fsys, dir)
	var bad *store.ReplayError
	if errors.As(err, &bad) {
		// The frame passed its CRC but what it carries does not apply: that
		// is a tampered or corrupted artifact, not a local fault.
		rep.Class, rep.Detail, rep.Index, rep.Offset = "bad-record", bad.Err.Error(), bad.Index, bad.Offset
		return rep, nil
	}
	if err != nil {
		return nil, err
	}
	raw, ok := state[keyCurrent]
	if !ok {
		return rep, tornTail(fsys, dir, rep)
	}
	rep.InFlight = true
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		rep.Class, rep.Detail = "bad-record", err.Error()
		return rep, nil
	}
	rep.Gen, rep.Stage, rep.Signed = r.Gen, r.Stage, len(r.Bundle) > 0
	if kr != nil {
		detail, err := checkBundle(&r, kr)
		if err != nil {
			return nil, err
		}
		if detail != "" {
			rep.Class, rep.Detail = "signature-failure", detail
			return rep, nil
		}
	}
	return rep, tornTail(fsys, dir, rep)
}

// tornTail marks rep when the store's journal has bytes past its last
// intact frame. After a crash that is an append that was never
// acknowledged, but offline it is indistinguishable from a bit flip in
// the newest record — which, dropped, would silently show the walk an
// older stage — so it is reported, at the frame it starts at.
func tornTail(fsys store.FS, dir string, rep *StateReport) error {
	recs, info, err := store.ScanFile(fsys, filepath.Join(dir, store.JournalFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if torn := info.FileSize - info.ValidLen; torn > 0 {
		rep.Class, rep.Index, rep.Offset = "torn-frame", len(recs), info.ValidLen
		rep.Detail = fmt.Sprintf("%d trailing journal bytes fail CRC framing", torn)
	}
	return nil
}
