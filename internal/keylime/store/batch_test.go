package store_test

// Batched-append and group-commit suite: prefix durability of a torn
// batched write (crash at every byte and every op boundary), rollback of
// a partially-written batch, and the concurrency + fsync-count contract
// of the background group-commit mode.

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keylime/faultinject"
	"repro/internal/keylime/store"
)

// batchWorkload is a fixed sequence of PutBatch calls, with a compaction
// before each batch index named in compactBefore.
type batchWorkload struct {
	batches       [][]store.KV
	compactBefore map[int]bool
}

// smallBatches exercises mixed puts/deletes, overwrites, and a compaction
// between batches, on values too small ever to journal as patches.
var smallBatches = batchWorkload{
	batches: [][]store.KV{
		{
			{Key: "agent-a", Value: []byte("frontier:10")},
			{Key: "agent-b", Value: []byte("frontier:4")},
			{Key: "agent-c", Value: []byte("frontier:2")},
		},
		{
			{Key: "agent-a", Value: []byte("frontier:17")},
			{Key: "agent-b", Delete: true},
			{Key: "agent-d", Value: []byte("frontier:9")},
			{Key: "agent-e", Value: []byte("frontier:1")},
		},
		{
			{Key: "agent-c", Value: []byte("frontier:11")},
			{Key: "agent-d", Delete: true},
			{Key: "agent-a", Value: []byte("frontier:23")},
		},
	},
	compactBefore: map[int]bool{2: true},
}

// patchRow is a state row shaped like the verifier's: a multi-KB cold
// body every revision of every key shares, then a short tail with the
// key and two counters a few dozen bytes apart — so consecutive revisions
// journal as patches, narrow ones when a single counter moves.
func patchRow(key string, nextOffset, attestations int) []byte {
	row := bytes.Repeat([]byte(`"/usr/bin/tool":["00112233445566778899aabbccddeeff"],`), 80)
	return append(row, fmt.Sprintf(`"agent_id":%q,"next_offset":%d,"prefix_aggregate":"5f3c9a","attestations":%d}`,
		key, nextOffset, attestations)...)
}

// patchedBatches drives every patch path through the crash sweeps: a
// patch against the stored value, against an in-batch predecessor,
// delete-then-put inside one batch (a whole put), the whole puts the
// base rule forces after each compaction, and — the one case patches
// make non-trivial — a kill between a compaction's snapshot rename and
// its journal reset, which leaves a stale journal over a newer snapshot
// (the op sweep lands a crash on exactly that truncate). agent-b's two
// puts between the compactions are what makes that case bite: one moves
// only the later counter, the next only the earlier one and by a digit,
// so patches cut against the old snapshot's row would land misaligned on
// the new snapshot's and rebuild a row no checksum accepts. Only because
// the first put into an emptied journal is whole does the stale journal
// replay from its own base.
var patchedBatches = batchWorkload{
	batches: [][]store.KV{
		{
			{Key: "agent-a", Value: patchRow("agent-a", 0, 1)},
			{Key: "agent-b", Value: patchRow("agent-b", 8, 15)},
			{Key: "agent-c", Value: patchRow("agent-c", 0, 1)},
		},
		{
			{Key: "agent-a", Value: patchRow("agent-a", 1, 2)},
			{Key: "agent-b", Value: patchRow("agent-b", 8, 16)},
			{Key: "agent-a", Value: patchRow("agent-a", 1, 3)},
			{Key: "agent-c", Delete: true},
			{Key: "agent-c", Value: patchRow("agent-c", 1, 2)},
			{Key: "agent-d", Value: patchRow("agent-d", 0, 1)},
		},
		{
			{Key: "agent-a", Value: patchRow("agent-a", 2, 4)},
			{Key: "agent-a", Value: patchRow("agent-a", 2, 5)},
			{Key: "agent-b", Value: patchRow("agent-b", 8, 17)},
			{Key: "agent-d", Delete: true},
		},
		{
			{Key: "agent-a", Value: patchRow("agent-a", 3, 6)},
			{Key: "agent-b", Value: patchRow("agent-b", 10, 17)},
			{Key: "agent-c", Value: patchRow("agent-c", 1, 3)},
		},
		{
			{Key: "agent-b", Value: patchRow("agent-b", 10, 18)},
			{Key: "agent-b", Value: patchRow("agent-b", 11, 19)},
		},
	},
	compactBefore: map[int]bool{2: true, 4: true},
}

// run executes the batches (and compactions) until one errors. acked and
// started count batches; onStep, when set, is called after the open and
// after every completed compaction and batch.
func (w batchWorkload) run(fsys store.FS, dir string, onStep func(*store.Store)) (acked, started int) {
	s, err := store.Open(dir, store.WithStoreFS(fsys), store.WithAutoCompact(0))
	if err != nil {
		return 0, 0
	}
	defer func() { _ = s.Close() }()
	if onStep == nil {
		onStep = func(*store.Store) {}
	}
	onStep(s)
	for i, batch := range w.batches {
		if w.compactBefore[i] {
			if err := s.Compact(); err != nil {
				return acked, started
			}
			onStep(s)
		}
		started++
		if err := s.PutBatch(batch); err != nil {
			return acked, started
		}
		acked++
		onStep(s)
	}
	return acked, started
}

// crashPoints runs w fault-free and returns how many bytes and mutating
// ops it wrote plus the byte offsets worth killing at: every byte of a
// step that wrote under 1 KiB, every byte within 24 of the start of a
// step or of a journal frame (headers, patch records, the last bytes of
// the frame before), and every 61st byte through the multi-KB bodies of
// whole puts and snapshots, where every offset tears the same frame the
// same way.
func (w batchWorkload) crashPoints(t *testing.T, dir string) (total int64, ops int, offsets []int64) {
	t.Helper()
	fsys := faultinject.NewFaultFS()
	var stepStart, journalBefore int64
	near := func(k int64, marks []int64) bool {
		for _, m := range marks {
			if k > m-24 && k <= m+24 {
				return true
			}
		}
		return false
	}
	acked, _ := w.run(fsys, dir, func(s *store.Store) {
		stepEnd := fsys.Counters().WriteBytes
		// Frames this step appended to the journal, as offsets into the
		// workload's cumulative write stream.
		marks := []int64{stepStart, stepEnd}
		recs, info, err := store.ScanFile(store.OS(), filepath.Join(dir, store.JournalFile))
		if err != nil {
			t.Fatal(err)
		}
		if info.ValidLen > journalBefore {
			for _, r := range recs {
				if r.Offset >= journalBefore {
					marks = append(marks, stepStart+r.Offset-journalBefore)
				}
			}
		}
		for k := stepStart + 1; k <= stepEnd; k++ {
			if stepEnd-stepStart <= 1024 || near(k, marks) || (k-stepStart)%61 == 0 {
				offsets = append(offsets, k)
			}
		}
		stepStart, journalBefore = stepEnd, info.ValidLen
	})
	if acked != len(w.batches) {
		t.Fatalf("fault-free pass acked %d of %d batches", acked, len(w.batches))
	}
	c := fsys.Counters()
	if c.WriteBytes == 0 {
		t.Fatal("counting pass saw no writes")
	}
	return c.WriteBytes, c.MutatingOps, offsets
}

// model folds the first `batches` full batches plus `prefix` ops of the
// next one into the expected state.
func (w batchWorkload) model(batches, prefix int) map[string]string {
	m := make(map[string]string)
	apply := func(op store.KV) {
		if op.Delete {
			delete(m, op.Key)
		} else {
			m[op.Key] = string(op.Value)
		}
	}
	for i := 0; i < batches; i++ {
		for _, op := range w.batches[i] {
			apply(op)
		}
	}
	if batches < len(w.batches) {
		for _, op := range w.batches[batches][:prefix] {
			apply(op)
		}
	}
	return m
}

// checkRecovered asserts the prefix-durability invariant on a crashed
// directory: what a read-only LoadState sees and what Open recovers are
// the same state, and it matches every acked batch plus some in-order
// prefix (possibly empty, possibly complete) of the single in-flight
// batch — never a subset of an acked batch, never out-of-order ops,
// never a patch applied to the wrong base.
func (w batchWorkload) checkRecovered(t *testing.T, label, dir string, acked, started int) {
	t.Helper()
	loaded, err := store.LoadState(store.OS(), dir)
	if err != nil {
		t.Fatalf("%s: LoadState failed: %v", label, err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer func() { _ = s.Close() }()
	got := s.All()
	if len(loaded) != len(got) {
		t.Fatalf("%s: LoadState sees %d keys, Open recovers %d", label, len(loaded), len(got))
	}
	for k, v := range got {
		if !bytes.Equal(loaded[k], v) {
			t.Fatalf("%s: LoadState and Open disagree on %s", label, k)
		}
	}
	matches := func(model map[string]string) bool {
		if len(got) != len(model) {
			return false
		}
		for k, v := range model {
			if string(got[k]) != v {
				return false
			}
		}
		return true
	}
	maxPrefix := 0
	if started > acked && acked < len(w.batches) {
		maxPrefix = len(w.batches[acked])
	}
	for p := 0; p <= maxPrefix; p++ {
		if matches(w.model(acked, p)) {
			if err := s.Put("post-crash", []byte("accepted")); err != nil {
				t.Fatalf("%s: store rejects writes after recovery: %v", label, err)
			}
			return
		}
	}
	keys := make([]string, 0, len(got))
	for k, v := range got {
		keys = append(keys, fmt.Sprintf("%s(%d bytes)", k, len(v)))
	}
	t.Fatalf("%s: recovered state %v is not %d acked batches + a prefix of batch %d",
		label, keys, acked, acked)
}

// TestStoreBatchCrashAtEveryByte kills the simulated process at byte
// offsets throughout the batched workloads (all of them for the small
// one): a torn batched write must recover as an in-order prefix of the
// batch, and no acknowledged batch may lose a record.
func TestStoreBatchCrashAtEveryByte(t *testing.T) {
	for name, w := range map[string]batchWorkload{"small": smallBatches, "patched": patchedBatches} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			total, _, offsets := w.crashPoints(t, filepath.Join(base, "count"))
			for _, k := range offsets {
				dir := filepath.Join(base, fmt.Sprintf("byte-%06d", k))
				ffs := faultinject.NewFaultFS()
				ffs.CrashAfterBytes = k
				acked, started := w.run(ffs, dir, nil)
				if k < total && !ffs.Crashed() {
					t.Fatalf("byte %d: crash never fired", k)
				}
				w.checkRecovered(t, fmt.Sprintf("crash after byte %d", k), dir, acked, started)
			}
		})
	}
}

// TestStoreBatchCrashAtEveryOp crashes immediately before every mutating
// filesystem op — in particular at the pre-fsync boundary (batch bytes
// written, not yet synced), the post-fsync boundary, and between a
// compaction's snapshot rename and its journal reset.
func TestStoreBatchCrashAtEveryOp(t *testing.T) {
	for name, w := range map[string]batchWorkload{"small": smallBatches, "patched": patchedBatches} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			_, totalOps, _ := w.crashPoints(t, filepath.Join(base, "count"))
			for n := 1; n <= totalOps; n++ {
				dir := filepath.Join(base, fmt.Sprintf("op-%04d", n))
				ffs := faultinject.NewFaultFS()
				ffs.CrashBeforeOp = n
				acked, started := w.run(ffs, dir, nil)
				if !ffs.Crashed() {
					t.Fatalf("op %d: crash never fired", n)
				}
				w.checkRecovered(t, fmt.Sprintf("crash before op %d", n), dir, acked, started)
			}
		})
	}
}

// TestStorePatchedWorkloadPatches pins what the patched sweep relies on:
// its rows do journal as patches, exactly where the base rule allows.
func TestStorePatchedWorkloadPatches(t *testing.T) {
	dir := t.TempDir()
	if acked, _ := patchedBatches.run(store.OS(), dir, nil); acked != len(patchedBatches.batches) {
		t.Fatalf("fault-free pass acked %d batches", acked)
	}
	// After the last compaction: agent-b whole (first put into the emptied
	// journal), then patched against its in-batch predecessor.
	recs, _, err := store.ScanFile(store.OS(), filepath.Join(dir, store.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Payload[0] != 1 || recs[1].Payload[0] != 3 {
		t.Fatalf("journal after the last compaction = %d records, want a whole put then a patch", len(recs))
	}
	if whole, patch := len(recs[0].Payload), len(recs[1].Payload); patch*20 > whole {
		t.Fatalf("patch record is %d bytes against a %d-byte whole put", patch, whole)
	}
}

// TestStoreFailedBatchLeavesPatchBase: a batch the journal refused must
// leave no trace — not in the state, not in what the next patch is cut
// against — or the next acknowledged patch would replay onto a base the
// journal never held.
func TestStoreFailedBatchLeavesPatchBase(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultFS()
	s, err := store.Open(dir, store.WithStoreFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("agent-a", patchRow("agent-a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	ffs.FailWriteN = ffs.Counters().Writes + 1
	ffs.ShortWriteBytes = 9
	failed := []store.KV{
		{Key: "agent-a", Value: patchRow("agent-a", 0, 2)},
		{Key: "agent-b", Value: patchRow("agent-b", 0, 1)},
	}
	if err := s.PutBatch(failed); err == nil {
		t.Fatal("short-written batch reported success")
	}
	if v, _ := s.Get("agent-a"); !bytes.Equal(v, patchRow("agent-a", 0, 1)) {
		t.Fatal("a refused batch changed agent-a")
	}
	if _, ok := s.Get("agent-b"); ok || s.Seq() != 1 {
		t.Fatalf("a refused batch left agent-b (present %v) or advanced Seq to %d", ok, s.Seq())
	}
	if err := s.Put("agent-a", patchRow("agent-a", 0, 4)); err != nil {
		t.Fatalf("put after the refused batch: %v", err)
	}
	if st := s.Stats(); st.PatchedPuts != 1 || st.WholePuts != 1 {
		t.Fatalf("stats = %d patched, %d whole, want 1 and 1", st.PatchedPuts, st.WholePuts)
	}
	_ = s.Close()
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s2.Close() }()
	if v, _ := s2.Get("agent-a"); !bytes.Equal(v, patchRow("agent-a", 0, 4)) || s2.Len() != 1 {
		t.Fatalf("reopened store: %d keys, agent-a intact = %v", s2.Len(), bytes.Equal(v, patchRow("agent-a", 0, 4)))
	}
}

// TestJournalBatchPrefixDurable drives AppendBatch directly: whatever
// the crash point, recovery must yield an in-order prefix of the
// appended payload sequence.
func TestJournalBatchPrefixDurable(t *testing.T) {
	batch := [][]byte{
		[]byte("rec-0"), []byte("rec-1-longer-payload"), []byte("rec-2"),
		[]byte("rec-3-x"), []byte("rec-4"),
	}
	// Fault-free pass to size the write stream.
	count := faultinject.NewFaultFS()
	countDir := t.TempDir()
	j, _, err := store.OpenJournal(count, filepath.Join(countDir, "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	total := count.Counters().WriteBytes

	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.wal")
		ffs := faultinject.NewFaultFS()
		ffs.CrashAfterBytes = k
		j, _, err := store.OpenJournal(ffs, path)
		acked := false
		if err == nil {
			acked = j.AppendBatch(batch) == nil
			_ = j.Close()
		}
		j2, payloads, err := store.OpenJournal(store.OS(), path)
		if err != nil {
			t.Fatalf("byte %d: recovery failed: %v", k, err)
		}
		_ = j2.Close()
		if acked && len(payloads) != len(batch) {
			t.Fatalf("byte %d: acked batch recovered only %d of %d records", k, len(payloads), len(batch))
		}
		if len(payloads) > len(batch) {
			t.Fatalf("byte %d: recovered %d records from a %d-record batch", k, len(payloads), len(batch))
		}
		for i, p := range payloads {
			if string(p) != string(batch[i]) {
				t.Fatalf("byte %d: record %d = %q, want prefix order %q", k, i, p, batch[i])
			}
		}
	}
}

// TestJournalPartialBatchWriteRollsBack injects a short write mid-batch:
// the append must fail, the file must be truncated back to the last good
// frame, and a subsequent append must not interleave with torn bytes.
func TestJournalPartialBatchWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	ffs := faultinject.NewFaultFS()
	j, _, err := store.OpenJournal(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("durable-before")); err != nil {
		t.Fatal(err)
	}
	// Fail the next write after 7 bytes — mid-frame inside the batch.
	ffs.FailWriteN = ffs.Counters().Writes + 1
	ffs.ShortWriteBytes = 7
	err = j.AppendBatch([][]byte{[]byte("torn-a"), []byte("torn-b")})
	if err == nil {
		t.Fatal("short-written batch append reported success")
	}
	// The journal rolled back; a later append must start at a clean frame.
	if err := j.Append([]byte("durable-after")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	_ = j.Close()
	j2, payloads, err := store.OpenJournal(store.OS(), path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer func() { _ = j2.Close() }()
	want := []string{"durable-before", "durable-after"}
	if len(payloads) != len(want) {
		t.Fatalf("recovered %d records, want %d: %q", len(payloads), len(want), payloads)
	}
	for i, p := range payloads {
		if string(p) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, p, want[i])
		}
	}
}

// gateFS lets the test hold the first group-commit fsync open so every
// concurrent appender is queued before the committer drains — making the
// fsync-count bound deterministic instead of timing-dependent.
type gateFS struct {
	base     store.FS
	gate     chan struct{}
	blocking *atomic.Bool
}

func (g gateFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	f, err := g.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, g: g}, nil
}
func (g gateFS) ReadFile(name string) ([]byte, error)         { return g.base.ReadFile(name) }
func (g gateFS) Rename(o, n string) error                     { return g.base.Rename(o, n) }
func (g gateFS) Remove(name string) error                     { return g.base.Remove(name) }
func (g gateFS) MkdirAll(path string, perm fs.FileMode) error { return g.base.MkdirAll(path, perm) }
func (g gateFS) Stat(name string) (fs.FileInfo, error)        { return g.base.Stat(name) }
func (g gateFS) SyncDir(name string) error                    { return g.base.SyncDir(name) }

type gateFile struct {
	store.File
	g gateFS
}

func (f gateFile) Sync() error {
	if f.g.blocking.Load() {
		<-f.g.gate
	}
	return f.File.Sync()
}

// TestGroupCommitConcurrentAppends is the tentpole concurrency test: N
// goroutines Append through a group-commit journal; every append that
// returned nil must be found intact after recovery, and the whole burst
// must cost at most ceil(N/maxBatch)+1 fsyncs.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const (
		n        = 64
		maxBatch = 8
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	var blocking atomic.Bool
	gate := make(chan struct{})
	counting := store.NewCountingFS(gateFS{base: store.OS(), gate: gate, blocking: &blocking})
	j, _, err := store.OpenJournal(counting, path,
		store.WithGroupCommit(5*time.Millisecond, maxBatch))
	if err != nil {
		t.Fatal(err)
	}
	base := counting.Counters().Syncs

	// Hold the first fsync open until every goroutine has had ample time
	// to enqueue, then release: the drain then runs full batches.
	blocking.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = j.Append([]byte(fmt.Sprintf("concurrent-%02d", i)))
		}(i)
	}
	close(start)
	time.Sleep(100 * time.Millisecond)
	blocking.Store(false)
	close(gate)
	wg.Wait()

	acked := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked++
	}
	syncs := counting.Counters().Syncs - base
	budget := uint64((n+maxBatch-1)/maxBatch + 1)
	if syncs > budget {
		t.Fatalf("%d concurrent appends cost %d fsyncs, budget %d", n, syncs, budget)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: every acknowledged append intact, no extras, no tears.
	j2, payloads, err := store.OpenJournal(store.OS(), path)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if len(payloads) != acked {
		t.Fatalf("recovered %d records, want %d", len(payloads), acked)
	}
	seen := make(map[string]bool)
	for _, p := range payloads {
		seen[string(p)] = true
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("concurrent-%02d", i)] {
			t.Fatalf("acknowledged append %d missing after recovery", i)
		}
	}
}

// TestGroupCommitAppendAfterClose: appends racing Close either complete
// durably or fail with ErrClosed — never a torn write, never a hang.
func TestGroupCommitAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, _, err := store.OpenJournal(store.OS(), filepath.Join(dir, "j.wal"),
		store.WithGroupCommit(time.Millisecond, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("pre-close")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("post-close")); err == nil {
		t.Fatal("append after Close reported success")
	}
}

// TestGroupCommitSyncDrains: Sync must not return while enqueued
// appends are still waiting for their commit.
func TestGroupCommitSyncDrains(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	j, _, err := store.OpenJournal(store.OS(), path,
		store.WithGroupCommit(50*time.Millisecond, 1024))
	if err != nil {
		t.Fatal(err)
	}
	done := j.AppendBatchAsync([][]byte{[]byte("async-1"), []byte("async-2")})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("async append: %v", err)
		}
	default:
		t.Fatal("Sync returned while an enqueued append was still pending")
	}
	if got := j.Records(); got != 2 {
		t.Fatalf("Records() = %d after Sync, want 2", got)
	}
	_ = j.Close()
}
