package main

import (
	"context"
	"fmt"
	"io"
)

// runAA is the A/A check: the same code, n runs of every workload on seeds
// seed..seed+n-1, each end-to-end metric's spread held against its bound.
// It prints min / median / max, max÷min, and the quartile spread the driver
// computes (distance between the first and third quartile as a share of the
// median), and fails if any spread exceeds its bound.
func runAA(ctx context.Context, cfg runConfig, n int, stdout, stderr io.Writer) int {
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = workloadNames()
	}
	code := 0
	fmt.Fprintf(stdout, "A/A: %d runs per workload, seeds %d..%d\n", n, cfg.Seed, cfg.Seed+int64(n)-1)
	fmt.Fprintf(stdout, "| workload | metric | unit | min | median | max | max/min | IQR/median | bound | |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		values := map[string][]float64{}
		raw := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.Workload, c.Seed = name, cfg.Seed+int64(i)
			res, err := run(ctx, c)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, c.Seed, err)
				return 2
			}
			if res.Failed > 0 {
				fmt.Fprintf(stderr, "bench: %s seed %d: FAILED: %s\n", name, c.Seed, res.Failure)
				return 1
			}
			for _, s := range res.Suspect {
				fmt.Fprintf(stderr, "bench: %s seed %d: SUSPECT run: %s\n", name, c.Seed, s)
			}
			for k, v := range res.E2E {
				values[k] = append(values[k], v)
			}
			for k, v := range res.Raw {
				raw[k] = append(raw[k], v)
			}
		}
		for _, d := range endToEnd {
			vs := values[d.Name]
			spread := quartileSpread(vs)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "TOO NOISY"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4g | %.4g | %.4g | %.3f | %.4f | %.2f | %s |\n",
				name, d.Name, d.Unit, percentile(vs, 0), median(vs), percentile(vs, 100),
				ratio(percentile(vs, 100), percentile(vs, 0)), spread, d.Bound, verdict)
		}
		// The same timings uncalibrated, for the README's raw-vs-calibrated
		// comparison; never gated.
		for _, k := range sortedKeys(raw) {
			vs := raw[k]
			fmt.Fprintf(stdout, "| %s | raw.%s | | %.4g | %.4g | %.4g | %.3f | %.4f | | not gated |\n",
				name, k, percentile(vs, 0), median(vs), percentile(vs, 100),
				ratio(percentile(vs, 100), percentile(vs, 0)), quartileSpread(vs))
		}
	}
	return code
}
