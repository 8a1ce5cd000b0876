package main

import (
	"context"
	"testing"
	"time"
)

const tms = time.Millisecond

func TestUnionLengthCountsOverlapOnce(t *testing.T) {
	iv := [][2]time.Duration{{10 * tms, 30 * tms}, {20 * tms, 40 * tms}, {50 * tms, 60 * tms}, {55 * tms, 58 * tms}}
	if got := unionLength(iv, 0, 100*tms); got != 40*tms {
		t.Errorf("union = %v, want 40ms", got)
	}
	// Clipped to the parent's interval.
	if got := unionLength(iv, 25*tms, 52*tms); got != 17*tms {
		t.Errorf("clipped union = %v, want 17ms", got)
	}
	if got := unionLength(nil, 0, tms); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	// A 100 ms sweep with three round trips, two of them concurrent, and a
	// sequential persist step with one child.
	spans := []span{
		{ID: 1, Name: "cycle", Start: 0, End: 150 * tms},
		{ID: 2, Parent: 1, Name: "verifier.poll_all", Start: 0, End: 100 * tms},
		{ID: 3, Parent: 2, Name: "httppool.roundtrip", Start: 10 * tms, End: 50 * tms},
		{ID: 4, Parent: 2, Name: "httppool.roundtrip", Start: 30 * tms, End: 70 * tms},
		{ID: 5, Parent: 2, Name: "httppool.roundtrip", Start: 80 * tms, End: 90 * tms},
		{ID: 6, Parent: 1, Name: "store.put_batch", Start: 100 * tms, End: 140 * tms},
	}
	got := aggregate(spans, func(int) (float64, bool) { return 1, true })
	if total, self := got.Total["verifier.poll_all"], got.Self["verifier.poll_all"]; !near(total, 100) || !near(self, 30) {
		t.Errorf("poll_all total %v self %v, want 100 ms and 30 ms (children cover 10..70 and 80..90)", total, self)
	}
	if n, total := got.Count[spanRoundTrip], got.Total[spanRoundTrip]; n != 3 || !near(total, 90) {
		t.Errorf("roundtrip count %d total %v, want 3 and 90 ms", n, total)
	}
	if !near(got.Transport, 70) {
		t.Errorf("transport %v ms, want 70: the two concurrent round trips count once", got.Transport)
	}
	if self := got.Self[spanCycle]; !near(self, 10) {
		t.Errorf("cycle self %v, want the 10 ms no layer span covers", self)
	}
	// A weight scales a span; a cycle without one leaves its spans out.
	half := aggregate(spans, func(c int) (float64, bool) { return 0.5, c == 0 })
	if !near(half.Total["store.put_batch"], 20) {
		t.Errorf("weighted put_batch total %v, want 20 ms", half.Total["store.put_batch"])
	}
	if none := aggregate(spans, func(int) (float64, bool) { return 1, false }); len(none.Total) != 0 {
		t.Errorf("spans of unweighted cycles were kept: %v", none.Total)
	}
}

func TestTracerParentsThroughContext(t *testing.T) {
	tr := newTracer()
	ctx := context.Background()
	if _, end := tr.begin(ctx, "off"); true {
		end()
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("a disabled tracer recorded %d spans", n)
	}
	tr.on.Store(true)
	tr.setCycle(7)
	pctx, endParent := tr.begin(ctx, "parent")
	_, endChild := tr.begin(pctx, "child")
	endChild()
	endParent()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	child, parent := spans[0], spans[1]
	if child.Name != "child" || child.Parent != parent.ID || parent.Parent != 0 {
		t.Errorf("child %+v is not parented to %+v", child, parent)
	}
	if child.Cycle != 7 || parent.Cycle != 7 {
		t.Errorf("spans carry cycles %d and %d, want the shared identifier 7", child.Cycle, parent.Cycle)
	}
	var nilTracer *tracer
	if _, end := nilTracer.begin(ctx, "x"); true {
		end() // a nil tracer is a disabled one
	}
}

// The budget identity on synthetic spans: self times (parallel round trips as
// their union) plus the root's self time are the cycle, whatever overlaps.
func TestBudgetIdentity(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Cycle: 0, Name: spanCycle, Start: 0, End: 200 * tms},
		{ID: 2, Cycle: 0, Parent: 1, Name: spanUntimed, Start: 0, End: 20 * tms},
		{ID: 3, Cycle: 0, Parent: 1, Name: "verifier.poll_all", Start: 20 * tms, End: 120 * tms},
		{ID: 4, Cycle: 0, Parent: 3, Name: spanRoundTrip, Start: 30 * tms, End: 70 * tms},
		{ID: 5, Cycle: 0, Parent: 3, Name: spanRoundTrip, Start: 50 * tms, End: 90 * tms},
		{ID: 6, Cycle: 0, Parent: 1, Name: "store.put_batch", Start: 130 * tms, End: 190 * tms},
	}
	tr.factor(0, 1)
	l := &layerReport{M: map[string]float64{}, Cycles: 1, Rounds: 2}
	fx := &fixture{Probe: &agentProbe{tr: tr}}
	l.spans(tr, fx, nil, 0)
	l.budget()
	if !near(l.cycleMs, 180) {
		t.Errorf("timed cycle = %v ms, want 200 − 20 untimed", l.cycleMs)
	}
	if got := l.M["budget.unexplained_ms"]; !near(got, 20) {
		t.Errorf("unexplained = %v ms, want 20 (120..130 and 190..200)", got)
	}
	if got := l.M["verifier.poll_self_ms"]; !near(got, 40) {
		t.Errorf("poll self = %v ms, want 100 − 60 covered by round trips", got)
	}
	if sum := l.selfSum() + l.M["budget.unexplained_ms"]; !near(sum, l.cycleMs) {
		t.Errorf("self times + unexplained = %v ms, cycle = %v ms", sum, l.cycleMs)
	}
}
