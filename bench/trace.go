package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer; Cycle is the
// identifier every span of one cycle shares.
type span struct {
	ID     int
	Parent int // 0 = root
	Cycle  int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are summarised when the run ends. A
// disabled tracer records nothing and costs one atomic load per call site.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
	cycle  atomic.Int64
	// factors maps a traced cycle to its calibration factor.
	factors map[int]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) setCycle(c int) { t.cycle.Store(int64(c)) }

type spanKey struct{}

// begin opens a span under the span carried by ctx (if any) and returns a
// context carrying the new one, plus the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if !t.enabled() {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(int)
	start := time.Since(t.epoch)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	cycle := int(t.cycle.Load())
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	ctx, end := t.begin(ctx, name)
	defer end()
	return fn(ctx)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// unionLength is the total length covered by the intervals, clipped to
// [lo, hi]: overlapping children are counted once.
func unionLength(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := iv[:0:0]
	for _, x := range iv {
		if x[0] < lo {
			x[0] = lo
		}
		if x[1] > hi {
			x[1] = hi
		}
		if x[1] > x[0] {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end time.Duration
	end = lo
	for _, x := range clipped {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// Span names the arithmetic treats specially.
const (
	spanCycle     = "cycle"              // the root span of one cycle
	spanUntimed   = "harness.untimed"    // simulated upstream/hardware activity inside a cycle
	spanRoundTrip = "httppool.roundtrip" // one HTTP round trip; a sweep runs several at once
)

// spanSums are per-name span times in ms, each span weighted by its cycle's
// calibration factor.
type spanSums struct {
	Count map[string]int
	// Total is the sum of durations; the root's excludes its untimed part.
	Total map[string]float64
	// Self is duration minus the part of that interval child spans cover,
	// so concurrent children (a sweep's parallel round trips) are taken
	// off their parent once, not once each.
	Self map[string]float64
	// Transport is the time covered by round trips, parallel ones once:
	// what the sweeps' self times left out.
	Transport float64
}

// aggregate folds spans into per-name sums. weight returns a span's cycle's
// factor, or false for a span to leave out.
func aggregate(spans []span, weight func(cycle int) (float64, bool)) spanSums {
	children := map[int][][2]time.Duration{}
	untimed := map[int][][2]time.Duration{}
	trips := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		iv := [2]time.Duration{s.Start, s.End}
		switch s.Name {
		case spanUntimed:
			untimed[s.Parent] = append(untimed[s.Parent], iv)
		case spanRoundTrip:
			trips[s.Parent] = append(trips[s.Parent], iv)
		}
		children[s.Parent] = append(children[s.Parent], iv)
	}
	out := spanSums{Count: map[string]int{}, Total: map[string]float64{}, Self: map[string]float64{}}
	for _, s := range spans {
		f, ok := weight(s.Cycle)
		if !ok || s.Name == spanUntimed {
			continue
		}
		total := s.dur()
		if s.Name == spanCycle {
			total -= unionLength(untimed[s.ID], s.Start, s.End)
		}
		out.Count[s.Name]++
		out.Total[s.Name] += ms(total) * f
		out.Self[s.Name] += ms(s.dur()-unionLength(children[s.ID], s.Start, s.End)) * f
		out.Transport += ms(unionLength(trips[s.ID], s.Start, s.End)) * f
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// factor records the calibration factor (reference speed ÷ measured speed) of
// a traced cycle, so span times can be read at reference speed too.
func (t *tracer) factor(cycle int, f float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.factors == nil {
		t.factors = map[int]float64{}
	}
	t.factors[cycle] = f
}
