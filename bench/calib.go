package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// calibRefMs is the duration of one calibration pass at "reference speed":
// the median pass time on the box the benchmark was written on (2 vCPU Xeon
// @ 2.1 GHz). A calibrated time is wall time divided by the pass time
// measured right after it, multiplied by this constant, so it reads as
// milliseconds on that box whatever the box it ran on was doing meanwhile.
// Changing it rescales every timing metric; it is a unit, not a tunable.
const calibRefMs = 1.30

// calibRow is one row of the fixed JSON document the kernel round-trips.
type calibRow struct {
	ID     int      `json:"id"`
	Name   string   `json:"name"`
	Digest string   `json:"digest"`
	Tags   []string `json:"tags"`
	Score  float64  `json:"score"`
}

// calibrator runs the fixed single-goroutine, stdlib-only kernel that every
// timed region is normalised against: SHA-256 over 256 KiB (the attestation
// path's hashing) and a JSON Marshal+Unmarshal of 400 rows (its row
// encoding). It touches no benchmark state, so its speed changes only when
// the machine's does.
type calibrator struct {
	blob []byte
	rows []calibRow
	sink byte

	// Wall and CPU time of the untimed stretches inside the region being
	// timed (see untimed); the driver is a single goroutine, so plain fields.
	exclWall, exclCPU time.Duration

	passes []float64 // every pass time in ms, for calib.pass_ms_p50 and calib.drift
}

func newCalibrator() *calibrator {
	c := &calibrator{blob: make([]byte, 256<<10), rows: make([]calibRow, 400)}
	for i := range c.blob {
		c.blob[i] = byte(i*131 + i>>8)
	}
	for i := range c.rows {
		c.rows[i] = calibRow{
			ID:     i,
			Name:   fmt.Sprintf("/usr/bin/calib-%04d", i),
			Digest: fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15),
			Tags:   []string{"exec", "base", fmt.Sprintf("pkg%03d", i%60)},
			Score:  float64(i) * 0.25,
		}
	}
	return c
}

// pass runs the kernel once.
func (c *calibrator) pass() {
	sum := sha256.Sum256(c.blob)
	c.sink ^= sum[0]
	data, err := json.Marshal(c.rows)
	if err != nil {
		panic(err) // fixed input: cannot fail
	}
	var back []calibRow
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	c.sink ^= byte(len(back))
}

// stallFactor caps a pass at this multiple of the fastest pass of its
// calibration. The slow plateau is 1.5× the fast one and a pass that meets a
// collection 2–3×; a pass that takes longer than that was descheduled, and
// one 100 ms stall in a mean of 8 would make the cycle before it look ten
// times cheaper (one verification in some 170 runs read 4× too fast).
const stallFactor = 4

// measure runs k passes and returns their mean duration in ms, stalls capped.
func (c *calibrator) measure(k int) float64 {
	first := len(c.passes)
	for i := 0; i < k; i++ {
		start := time.Now()
		c.pass()
		c.passes = append(c.passes, float64(time.Since(start))/float64(time.Millisecond))
	}
	return cappedMean(c.passes[first:])
}

// cappedMean is the mean of ms with every value capped at stallFactor × the
// smallest.
func cappedMean(ms []float64) float64 {
	limit := stallFactor * slices.Min(ms)
	var total float64
	for _, v := range ms {
		total += min(v, limit)
	}
	return total / float64(len(ms))
}

// allocBytesPerPass measures the kernel's own allocation so the allocation
// metrics can subtract it.
func (c *calibrator) allocBytesPerPass() float64 {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.pass()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// region is one timed stretch of work followed by its calibration.
type region struct {
	WallMs  float64 // raw wall time
	CPUMs   float64 // raw process user+sys time
	CalibMs float64 // mean pass time of the calibration that followed
	// SpeedMs is the pass time the region is normalised by: CalibMs
	// smoothed over the neighbouring regions (see smoothCalibration), or 0
	// when the region stands alone.
	SpeedMs float64
}

// calibWindow is how many regions either side of a region share their
// calibration with it. The pass time flips between two plateaus (≈1.3 and
// ≈2.0 ms) every few tens of milliseconds: the kernel allocates, so a pass
// that meets a collection of the stack's heap pays mark assists and fresh
// page faults (alone in a process it does the same a fifth of the time; a
// SHA-256-only kernel holds ±1 %). That sensitivity is wanted — a kernel that
// only computes does not slow down when the box's memory system does, and
// cancels none of the drift (README, "Why timings are calibrated") — but a
// 100 ms cycle averages over several flips while its own 10 ms of
// calibration catches one. What carries over from the calibration to the
// cycle is the share of slow time around it, so that is what a cycle is
// divided by: the mean over 11 calibrations (88 passes, ≈1.5 s). With the
// cycle's own calibration alone, per-cycle costs carry ±20 % of calibration
// noise and the p50 of identical runs moves 6 %; smoothed, under 2 %.
const calibWindow = 5

// smoothCalibration sets each region's SpeedMs to the mean CalibMs of the
// regions within calibWindow of it. rs must be in time order.
func smoothCalibration(rs []region) {
	for i := range rs {
		lo, hi := max(0, i-calibWindow), min(len(rs), i+calibWindow+1)
		var sum float64
		for _, r := range rs[lo:hi] {
			sum += r.CalibMs
		}
		rs[i].SpeedMs = sum / float64(hi-lo)
	}
}

// factor is reference speed ÷ measured speed around the region.
func (r region) factor() float64 {
	if r.SpeedMs > 0 {
		return calibRefMs / r.SpeedMs
	}
	return calibRefMs / r.CalibMs
}

// calibrated converts a raw duration in the region to reference-speed ms.
func (r region) calibrated(rawMs float64) float64 { return rawMs * r.factor() }

// Cost is the region's calibrated wall time.
func (r region) Cost() float64 { return r.calibrated(r.WallMs) }

// CPUCost is the region's calibrated CPU time.
func (r region) CPUCost() float64 { return r.calibrated(r.CPUMs) }

// untimed runs fn — simulated upstream or hardware activity that is not the
// system under test — and takes its wall and CPU time out of the enclosing
// timed region.
func (c *calibrator) untimed(fn func() error) error {
	cpu0 := processCPU()
	start := time.Now()
	err := fn()
	c.exclWall += time.Since(start)
	c.exclCPU += processCPU() - cpu0
	return err
}

// timed runs fn, then k calibration passes, and returns the region.
func (c *calibrator) timed(k int, fn func() error) (region, error) {
	c.exclWall, c.exclCPU = 0, 0
	cpu0 := processCPU()
	start := time.Now()
	err := fn()
	wall := time.Since(start) - c.exclWall
	cpu := processCPU() - cpu0 - c.exclCPU
	return region{
		WallMs:  float64(wall) / float64(time.Millisecond),
		CPUMs:   float64(cpu) / float64(time.Millisecond),
		CalibMs: c.measure(k),
	}, err
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
