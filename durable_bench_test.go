package repro_test

// Durable fleet-sweep benchmark: the fleet benchmarks above measure the
// attestation control plane with persistence disabled, so the real cost
// of a durable sweep — journaling every dirty agent row and audit record
// with per-record fsyncs — was never on the scoreboard. This benchmark
// runs PollAll with the state store AND the audit journal enabled, in
// three persistence modes:
//
//   off           no store, no audit journal — the pure attestation
//                 sweep. Subtracting this from the durable modes gives
//                 the persistence cost of a sweep, which is what the
//                 before/after comparison in BENCH_pr8.json reports.
//   per-record    every row and audit record costs its own fsync (the
//                 pre-group-commit behavior)
//   group-commit  the sweep's rows land in one Store.PutBatch and its
//                 audit records in one Log.AppendBatch — a constant
//                 number of fsyncs per sweep regardless of fleet size
//
// A CountingFS underneath reports fsyncs/sweep as a benchmark metric,
// and TestDurableSweepFsyncBudget pins the group-commit sweep to the
// ≤4-fsync budget that BENCH_pr8.json records.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/keylime/audit"
	"repro/internal/keylime/store"
	"repro/internal/keylime/verifier"
	"repro/internal/tpm"
)

// durableHarness wires a verifier to a journaled state store and audit
// journal over a CountingFS, mirroring cmd/keylime-verifier's persist
// path in both modes.
type durableHarness struct {
	v       *verifier.Verifier
	st      *store.Store
	jl      *audit.JournalLog
	iofs    *store.CountingFS
	group   bool
	persist func() error
	// persistNs accumulates time spent in the state-persist phase alone,
	// separating the durability cost from the attestation compute that
	// dominates the sweep.
	persistNs time.Duration
}

func newDurableHarness(tb testing.TB, fleet int, mode string, extra ...verifier.Option) *durableHarness {
	tb.Helper()
	durable := mode != "off"
	group := mode == "group-commit"
	akPub, pol, client := fleetFixture(tb)
	iofs := store.NewCountingFS(store.OS())

	var st *store.Store
	var jl *audit.JournalLog
	vopts := []verifier.Option{
		verifier.WithHTTPClient(client),
		verifier.WithPollConcurrency(64),
	}
	if durable {
		// Auto-compaction is disabled so the measured fsyncs are the append
		// path alone: a compaction's temp-write+rename+dir-sync triple fires
		// on a journal-growth schedule, not per sweep, and would add noise.
		var err error
		st, err = store.Open(tb.TempDir(), store.WithStoreFS(iofs), store.WithAutoCompact(0))
		if err != nil {
			tb.Fatal(err)
		}
		var jopts []store.JournalOption
		if group {
			jopts = append(jopts, store.WithGroupCommit(2*time.Millisecond, 1024))
		}
		jl, err = audit.OpenJournal(iofs, tb.TempDir()+"/audit.wal", jopts...)
		if err != nil {
			tb.Fatal(err)
		}
		vopts = append(vopts,
			verifier.WithAuditLog(jl.Log),
			verifier.WithAuditBatch(group),
		)
	}
	v := verifier.New("", append(vopts, extra...)...)
	for i := 0; i < fleet; i++ {
		id := fmt.Sprintf("fleet-%05d-4a97-9ef7-75bd81c0f1ee", i)
		if err := v.AddAgentWithAK(id, "http://agent.fleet.internal", akPub, pol); err != nil {
			tb.Fatalf("AddAgentWithAK: %v", err)
		}
	}
	h := &durableHarness{v: v, st: st, jl: jl, iofs: iofs, group: group}
	h.persist = func() error {
		if !durable {
			return nil
		}
		changed, removed, err := v.ExportDirty()
		if err != nil {
			return err
		}
		if group {
			batch := make([]store.KV, 0, len(changed)+len(removed))
			for _, as := range changed {
				data, err := json.Marshal(as)
				if err != nil {
					return err
				}
				batch = append(batch, store.KV{Key: as.AgentID, Value: data})
			}
			for _, id := range removed {
				batch = append(batch, store.KV{Key: id, Delete: true})
			}
			return st.PutBatch(batch)
		}
		for _, as := range changed {
			data, err := json.Marshal(as)
			if err != nil {
				return err
			}
			if err := st.Put(as.AgentID, data); err != nil {
				return err
			}
		}
		for _, id := range removed {
			if err := st.Delete(id); err != nil {
				return err
			}
		}
		return nil
	}
	return h
}

func (h *durableHarness) close() {
	h.v.Close()
	if h.jl != nil {
		_ = h.jl.Close()
	}
	if h.st != nil {
		_ = h.st.Close()
	}
}

// sweep runs one durable sweep: PollAll, then persist the dirty rows.
func (h *durableHarness) sweep(tb testing.TB, ctx context.Context, fleet int) verifier.PollStats {
	st := h.v.PollAll(ctx)
	if st.Attested != fleet || st.Failed != 0 || st.AuditFlushErrs != 0 {
		tb.Fatalf("sweep = %+v", st)
	}
	start := time.Now()
	if err := h.persist(); err != nil {
		tb.Fatalf("persist: %v", err)
	}
	h.persistNs += time.Since(start)
	return st
}

func BenchmarkPollAllFleetDurable(b *testing.B) {
	for _, fleet := range []int{100, 1000, 10000} {
		for _, mode := range []string{"off", "per-record", "group-commit"} {
			b.Run(fmt.Sprintf("agents=%d/mode=%s", fleet, mode), func(b *testing.B) {
				h := newDurableHarness(b, fleet, mode)
				defer h.close()
				ctx := context.Background()
				// Warm-up sweep: first rounds fetch and verify the full
				// measurement log; measured sweeps see the steady state.
				h.sweep(b, ctx, fleet)
				b.ReportAllocs()
				syncs0 := h.iofs.Counters().Syncs
				h.persistNs = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.sweep(b, ctx, fleet)
				}
				b.StopTimer()
				syncs := h.iofs.Counters().Syncs - syncs0
				b.ReportMetric(float64(fleet), "agents/sweep")
				b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/sweep")
				b.ReportMetric(float64(h.persistNs.Milliseconds())/float64(b.N), "persist-ms/sweep")
			})
		}
	}
}

// TestDurableSweepFsyncBudget is the fsync-budget gate: a group-commit
// durable sweep over 1000 agents — every row dirty, every round audited
// — must cost at most 4 fsyncs (state batch + audit batch, with slack
// for a group-commit flush split). This is the CI assertion behind the
// ≤4-fsyncs-per-sweep acceptance number in BENCH_pr8.json.
func TestDurableSweepFsyncBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture is expensive")
	}
	const fleet = 1000
	h := newDurableHarness(t, fleet, "group-commit")
	defer h.close()
	ctx := context.Background()
	h.sweep(t, ctx, fleet) // warm-up: log fetch + verify
	const sweeps = 3
	syncs0 := h.iofs.Counters().Syncs
	for i := 0; i < sweeps; i++ {
		st := h.sweep(t, ctx, fleet)
		if st.AuditBatched != fleet {
			t.Fatalf("sweep audited %d of %d rounds through the batch", st.AuditBatched, fleet)
		}
	}
	syncs := h.iofs.Counters().Syncs - syncs0
	if perSweep := float64(syncs) / sweeps; perSweep > 4 {
		t.Fatalf("durable sweep cost %.1f fsyncs (budget 4): group commit is not batching", perSweep)
	}
	// The durable artifacts must actually contain the sweeps' data.
	if h.st.Len() != fleet {
		t.Fatalf("state store holds %d rows, want %d", h.st.Len(), fleet)
	}
	if err := audit.VerifyChain(h.jl.Log.Records()); err != nil {
		t.Fatalf("audit chain after batched sweeps: %v", err)
	}
	if got := h.jl.Log.Len(); got != fleet*(sweeps+1) {
		t.Fatalf("audit log holds %d records, want %d", got, fleet*(sweeps+1))
	}
}

// TestSteadySweepJournalBytesBudget is the persist path's byte-and-heap
// gate, the deterministic shadow of the whole-stack benchmark's
// steady_sessions workload: 64 agents on a ~500-line policy, sweeps in
// which every round is a session MAC. Between update days a row's only
// news is its counters, so a sweep may journal at most 2 KiB per ~50 KB
// row into the state store, and the store may not hoard what it wrote:
// over 5 000 row mutations the heap grows by less than the live state
// (the store's share of the heap stays under twice what it holds).
func TestSteadySweepJournalBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture is expensive")
	}
	const (
		fleet       = 64
		policyLines = 500
		rowBudget   = 2 << 10
		mutations   = 5000
	)
	// No forced full quote within the test: once established, every round
	// is a session round.
	h := newDurableHarness(t, fleet, "group-commit", verifier.WithSessionPolicy(1<<30, 0))
	defer h.close()
	ctx := context.Background()
	active, _, err := h.v.ActivePolicy(h.v.AgentIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := active.Lines(); i < policyLines; i++ {
		var d tpm.Digest
		d[0], d[1] = byte(i), byte(i>>8)
		active.Add(fmt.Sprintf("/usr/lib/x86_64-linux-gnu/libsteady-%04d.so.1", i), d)
	}
	for _, id := range h.v.AgentIDs() {
		if err := h.v.UpdatePolicy(id, active); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the full quotes that establish sessions, then one session
	// sweep, so the measured ones start from rows written by their like.
	for i := 0; i < 3; i++ {
		h.sweep(t, ctx, fleet)
	}
	var liveBytes int64
	for _, row := range h.st.All() {
		liveBytes += int64(len(row))
	}
	if perRow := liveBytes / fleet; perRow < 40<<10 {
		t.Fatalf("rows are %d bytes: the fixture no longer resembles a ~500-line policy", perRow)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	heap0, journal0 := heap(), h.st.Stats().JournalBytes
	sweeps := 0
	for ; sweeps*fleet < mutations; sweeps++ {
		if st := h.sweep(t, ctx, fleet); st.SessionRounds != fleet {
			t.Fatalf("sweep %d: %d of %d rounds were session rounds: %+v", sweeps, st.SessionRounds, fleet, st)
		}
	}
	st := h.st.Stats()
	perRow := float64(st.JournalBytes-journal0) / float64(sweeps*fleet)
	if perRow > rowBudget {
		t.Fatalf("a session-only sweep journals %.0f bytes per row (budget %d): rows are being rewritten whole (%d whole puts, %d patched)",
			perRow, rowBudget, st.WholePuts, st.PatchedPuts)
	}
	if growth := heap() - heap0; growth > liveBytes {
		t.Fatalf("heap grew %d KiB over %d row mutations of a %d KiB live state: the store is retaining what it wrote",
			growth>>10, sweeps*fleet, liveBytes>>10)
	}
	t.Logf("%.0f journal bytes per row per session sweep; rows %d bytes; %d patched / %d whole puts",
		perRow, liveBytes/fleet, st.PatchedPuts, st.WholePuts)
}
