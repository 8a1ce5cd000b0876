// Package custody walks the full evidence chain of custody offline:
// the sealed audit journal, the revocation outbox, and the journaled
// rollout state. It is the engine behind `keylime-tenant verify-chain`.
//
// Each artifact is verified independently with the layered defenses its
// package provides (frame CRCs, hash chain, DSSE seals); the aggregate
// report names the first broken link per artifact — which record, at
// which byte offset, broken how — so an operator lands on the exact
// bytes to inspect rather than a boolean. Signature failures are their
// own verdict class throughout: a broken seal quarantines the artifact
// and alerts, it never silently passes and never turns into a fabricated
// agent-integrity verdict.
package custody

import (
	"fmt"
	"strings"

	"repro/internal/keylime/audit"
	"repro/internal/keylime/dsse"
	"repro/internal/keylime/rollout"
	"repro/internal/keylime/store"
	"repro/internal/keylime/webhook"
)

// Config names the artifacts to walk. Empty paths are skipped (the
// operator verifies whatever subset they have on hand).
type Config struct {
	// AuditLog is the sealed audit journal file.
	AuditLog string
	// Outbox is the revocation outbox journal file.
	Outbox string
	// RolloutState is the rollout controller's store directory.
	RolloutState string
	// Keyring supplies trust anchors for every DSSE check; nil verifies
	// structure (framing, hash chain, head consistency) only.
	Keyring *dsse.Keyring
	// FS defaults to the real filesystem.
	FS store.FS
}

// Broken identifies the first broken link of the whole walk.
type Broken struct {
	// Artifact is "audit", "outbox", or "rollout".
	Artifact string `json:"artifact"`
	// Index and Offset locate the record inside the artifact (both -1
	// when the problem is not at a frame, e.g. a rollout record whose
	// bundle fails its signature).
	Index  int   `json:"index"`
	Offset int64 `json:"offset"`
	// Class is the artifact's taxonomy class (signature-failure,
	// chain-broken, torn-frame, ...).
	Class  string `json:"class"`
	Detail string `json:"detail"`
}

func (b *Broken) String() string {
	loc := ""
	if b.Index >= 0 {
		loc = fmt.Sprintf(" at record %d (byte offset %d)", b.Index, b.Offset)
	}
	return fmt.Sprintf("%s%s: %s: %s", b.Artifact, loc, b.Class, b.Detail)
}

// Report aggregates the per-artifact verifications.
type Report struct {
	Audit   *audit.JournalReport  `json:"audit,omitempty"`
	Outbox  *webhook.OutboxReport `json:"outbox,omitempty"`
	Rollout *rollout.StateReport  `json:"rollout,omitempty"`
	// FirstBroken is the first failing link across the walked artifacts
	// (walk order: audit, outbox, rollout); nil when everything verifies.
	FirstBroken *Broken `json:"first_broken,omitempty"`
}

// OK reports whether every walked artifact verified.
func (r *Report) OK() bool { return r.FirstBroken == nil }

// Summary renders an operator-facing multi-line account of the walk.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Audit != nil {
		fmt.Fprintf(&b, "audit:   %d records, %d checkpoints (%d verified), signed through seq %d",
			r.Audit.Records, r.Audit.Checkpoints, r.Audit.VerifiedCheckpoints, r.Audit.SignedThrough)
		if r.Audit.FirstBad != nil {
			fmt.Fprintf(&b, "\n         BROKEN: %s", r.Audit.FirstBad)
		}
		b.WriteByte('\n')
	}
	if r.Outbox != nil {
		fmt.Fprintf(&b, "outbox:  %d records (%d enqueues: %d signed, %d unsigned; %d acks)",
			r.Outbox.Records, r.Outbox.Enqueues, r.Outbox.Signed, r.Outbox.Unsigned, r.Outbox.Acks)
		if r.Outbox.FirstBad != nil {
			fmt.Fprintf(&b, "\n         BROKEN: %s", r.Outbox.FirstBad)
		}
		b.WriteByte('\n')
	}
	if r.Rollout != nil {
		switch {
		case !r.Rollout.InFlight:
			b.WriteString("rollout: idle (no in-flight record)")
		case r.Rollout.OK():
			fmt.Fprintf(&b, "rollout: generation %d at stage %s, bundle verified", r.Rollout.Gen, r.Rollout.Stage)
		default:
			fmt.Fprintf(&b, "rollout: BROKEN: %s: %s", r.Rollout.Class, r.Rollout.Detail)
		}
		b.WriteByte('\n')
	}
	if r.FirstBroken != nil {
		fmt.Fprintf(&b, "FIRST BROKEN LINK: %s\n", r.FirstBroken)
	} else {
		b.WriteString("chain of custody intact\n")
	}
	return b.String()
}

// Verify walks the configured artifacts. Errors are local faults
// (unreadable file, undecodable store) — a tampered artifact is not an
// error, it is a Report with FirstBroken set.
func Verify(cfg Config) (*Report, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = store.OS()
	}
	rep := &Report{}
	if cfg.AuditLog != "" {
		ar, err := audit.VerifyJournalFile(fsys, cfg.AuditLog, cfg.Keyring)
		if err != nil {
			return nil, err
		}
		rep.Audit = ar
		if bad := ar.FirstBad; bad != nil && rep.FirstBroken == nil {
			rep.FirstBroken = &Broken{Artifact: "audit", Index: bad.Index,
				Offset: bad.Offset, Class: bad.Class, Detail: bad.Detail}
		}
	}
	if cfg.Outbox != "" {
		or, err := webhook.VerifyOutboxFile(fsys, cfg.Outbox, cfg.Keyring)
		if err != nil {
			return nil, err
		}
		rep.Outbox = or
		if bad := or.FirstBad; bad != nil && rep.FirstBroken == nil {
			rep.FirstBroken = &Broken{Artifact: "outbox", Index: bad.Index,
				Offset: bad.Offset, Class: bad.Class, Detail: bad.Detail}
		}
	}
	if cfg.RolloutState != "" {
		rr, err := rollout.VerifyState(fsys, cfg.RolloutState, cfg.Keyring)
		if err != nil {
			return nil, err
		}
		rep.Rollout = rr
		if !rr.OK() && rep.FirstBroken == nil {
			rep.FirstBroken = &Broken{Artifact: "rollout", Index: rr.Index, Offset: rr.Offset,
				Class: rr.Class, Detail: rr.Detail}
		}
	}
	return rep, nil
}
