package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {10, 1.4},
	} {
		if got := percentile(vs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", vs, c.p, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are what Python gives:
//
//	>>> q = statistics.quantiles(v, n=4); (q[2]-q[0])/statistics.median(v)
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		// quantiles -> [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		// quantiles -> [100.0, 102.5, 105.25]
		{[]float64{100, 101, 99, 103, 107, 102, 104, 100, 106, 105}, 5.25 / 102.5},
		// quantiles of [1,2,3] -> [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1.0},
		// quantiles of [1,2] -> [0.75, 1.5, 2.25]: extrapolates past the data
		{[]float64{1, 2}, 1.0},
	} {
		if got := quartileSpread(c.vs); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestCalibratedArithmetic(t *testing.T) {
	// 100 ms of wall time on a box running the kernel at half reference
	// speed is 50 ms at reference speed.
	r := region{WallMs: 100, CPUMs: 160, CalibMs: 2 * calibRefMs}
	if got := r.Cost(); !near(got, 50) {
		t.Errorf("Cost = %v, want 50", got)
	}
	if got := r.CPUCost(); !near(got, 80) {
		t.Errorf("CPUCost = %v, want 80", got)
	}
	// A region normalised by its neighbourhood uses the smoothed pass time.
	rs := make([]region, 2*calibWindow+3)
	for i := range rs {
		rs[i] = region{WallMs: 10, CalibMs: calibRefMs}
	}
	rs[0].CalibMs = 12 * calibRefMs // one wild calibration at the edge
	smoothCalibration(rs)
	if want := calibRefMs * (12 + calibWindow) / (calibWindow + 1); !near(rs[0].SpeedMs, want) {
		t.Errorf("edge region smoothed over %v ms, want the mean of itself and %d neighbours = %v", rs[0].SpeedMs, calibWindow, want)
	}
	if got := rs[calibWindow+1].Cost(); !near(got, 10) {
		t.Errorf("a region out of the wild calibration's reach costs %v, want 10", got)
	}
	if got, want := rs[calibWindow].Cost(), 10*float64(2*calibWindow+1)/float64(2*calibWindow+12); !near(got, want) {
		t.Errorf("a region within reach costs %v, want %v", got, want)
	}
	// At reference speed calibrated time is wall time.
	r = region{WallMs: 42, CalibMs: calibRefMs}
	if got := r.Cost(); !near(got, 42) {
		t.Errorf("Cost at reference speed = %v, want 42", got)
	}
}

func TestCappedMeanIgnoresAStall(t *testing.T) {
	// Plateaus and a pass that met a collection count in full; a pass the
	// scheduler sat on counts as stallFactor × the fastest.
	if got := cappedMean([]float64{1.3, 2.0, 1.3, 3.9}); !near(got, (1.3+2.0+1.3+3.9)/4) {
		t.Errorf("mean of unstalled passes = %v", got)
	}
	if got, want := cappedMean([]float64{1.0, 1.5, 120, 1.5}), (1.0+1.5+stallFactor*1.0+1.5)/4; !near(got, want) {
		t.Errorf("mean with a 120 ms stall = %v, want %v", got, want)
	}
}

func TestTimedExcludesUntimedStretches(t *testing.T) {
	cal := newCalibrator()
	r, err := cal.timed(1, func() error {
		time.Sleep(5 * time.Millisecond)
		return cal.untimed(func() error { time.Sleep(40 * time.Millisecond); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.WallMs < 4 || r.WallMs > 30 {
		t.Errorf("timed region = %.1f ms; the 40 ms untimed stretch was not taken out of the ~5 ms region", r.WallMs)
	}
	if r.CalibMs <= 0 || len(cal.passes) != 1 {
		t.Errorf("calibration after the region: mean %.3f ms over %d passes, want 1 pass", r.CalibMs, len(cal.passes))
	}
}
