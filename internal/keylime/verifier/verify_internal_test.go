package verifier

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/ima"
	"repro/internal/policy"
	"repro/internal/tpm"
)

// makeEntries builds n structurally valid entries chained from a zero PCR.
func makeEntries(n int) []ima.Entry {
	entries := make([]ima.Entry, n)
	for i := range entries {
		d := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		path := fmt.Sprintf("/usr/bin/tool-%d", i)
		entries[i] = ima.Entry{
			PCR: tpm.PCRIMA, FileDigest: d, Path: path,
			TemplateHash: ima.TemplateHash(d, path),
		}
	}
	return entries
}

// referenceFold is the straightforward two-pass oracle the single-pass
// implementation must agree with.
func referenceFold(prefix tpm.Digest, entries []ima.Entry) []tpm.Digest {
	aggs := make([]tpm.Digest, len(entries))
	pcr := prefix
	for i, e := range entries {
		pcr = ima.ExtendAggregate(pcr, e.TemplateHash)
		aggs[i] = pcr
	}
	return aggs
}

func TestVerifyAndFoldMatchesReference(t *testing.T) {
	prefix := sha256.Sum256([]byte("prefix"))
	for _, n := range []int{0, 1, 7, parallelVerifyThreshold - 1, parallelVerifyThreshold, 1000} {
		entries := makeEntries(n)
		want := referenceFold(prefix, entries)
		for _, workers := range []int{1, 4} {
			aggs, invalid := verifyAndFold(prefix, entries, workers)
			if invalid != -1 {
				t.Fatalf("n=%d workers=%d: invalid = %d, want -1", n, workers, invalid)
			}
			if len(aggs) != len(want) {
				t.Fatalf("n=%d workers=%d: len(aggs) = %d, want %d", n, workers, len(aggs), len(want))
			}
			for i := range want {
				if aggs[i] != want[i] {
					t.Fatalf("n=%d workers=%d: aggs[%d] diverges from reference", n, workers, i)
				}
			}
		}
	}
}

func TestVerifyAndFoldReportsFirstInvalidEntry(t *testing.T) {
	for _, n := range []int{10, 1000} {
		for _, badAt := range []int{0, 3, n - 1} {
			entries := makeEntries(n)
			// Corrupt two entries; the lower index must win regardless of
			// worker scheduling.
			entries[badAt].TemplateHash[0] ^= 0xff
			if badAt+5 < n {
				entries[badAt+5].TemplateHash[0] ^= 0xff
			}
			for _, workers := range []int{1, 4} {
				aggs, invalid := verifyAndFold(tpm.Digest{}, entries, workers)
				if invalid != badAt {
					t.Fatalf("n=%d badAt=%d workers=%d: invalid = %d", n, badAt, workers, invalid)
				}
				if aggs != nil {
					t.Fatalf("n=%d badAt=%d workers=%d: aggs must be nil on invalid input", n, badAt, workers)
				}
			}
		}
	}
}

func BenchmarkVerifyAndFold(b *testing.B) {
	entries := makeEntries(10000)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, invalid := verifyAndFold(tpm.Digest{}, entries, workers); invalid != -1 {
					b.Fatal("unexpected invalid entry")
				}
			}
		})
	}
}

// TestRestoreParsesEachDistinctPolicyOnce: within one restore, rows whose
// policy bytes are identical share one parsed policy — active or shadow —
// and rows with other bytes do not.
func TestRestoreParsesEachDistinctPolicyOnce(t *testing.T) {
	src := New("")
	defer src.Close()
	polA, polB := policy.New(), policy.New()
	polA.Add("/usr/bin/a", tpm.Digest{1})
	polB.Add("/usr/bin/b", tpm.Digest{2})
	for i, pol := range []*policy.RuntimePolicy{polA, polA, polB} {
		if err := src.AddAgentWithAK(fmt.Sprintf("agent-%d", i), "http://agent.invalid", []byte("ak"), pol); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SetShadowPolicy("agent-2", 7, polA); err != nil {
		t.Fatal(err)
	}
	snap, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	v := New("")
	defer v.Close()
	if err := v.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	slot := func(id string) *monitored {
		a, ok := v.agents.get(id)
		if !ok {
			t.Fatalf("%s not restored", id)
		}
		return a
	}
	a0, a1, a2 := slot("agent-0"), slot("agent-1"), slot("agent-2")
	if a0.pol != a1.pol || a2.shadowPol != a0.pol {
		t.Fatal("rows with identical policy bytes were parsed separately")
	}
	if a2.pol == a0.pol || !a2.pol.Has("/usr/bin/b") || !a0.pol.Has("/usr/bin/a") {
		t.Fatal("rows with different policy bytes share a policy")
	}
}
