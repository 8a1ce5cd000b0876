// Command bench is the repository's whole-stack benchmark: it builds the
// production composition of cmd/keylime-verifier in-process, drives one of
// four closed-loop fleet workloads for a fixed number of cycles, checks every
// output, and prints every metric by name with its unit. See README.md.
//
// The driver's contract:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
// Without --workload it runs all four workloads untraced and prints a table;
// -aa N repeats that N times and holds each metric's spread to its bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, as a table)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "nominal length of the measured phase; scales the fixed cycle count")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.Scale, "scale", "small", "size of the synthetic distribution (only small is runnable today)")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "3 measured cycles per workload: correctness only, timings meaningless")
	aa := fs.Int("aa", 0, "run every workload N times (seeds seed..seed+N-1) and hold each end-to-end metric's spread to its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace != 0
	ctx := context.Background()

	if *aa > 0 {
		return runAA(ctx, cfg, *aa, stdout, stderr)
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = workloadNames()
	}
	var results []*runResult
	for _, name := range names {
		c := cfg
		c.Workload = name
		res, err := run(ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 2
		}
		report(stdout, res)
		if err := json.NewEncoder(stdout).Encode(resultLine(res)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		results = append(results, res)
	}
	return exitCode(results)
}

// exitCode is 1 when any run had an operation fail its check.
func exitCode(results []*runResult) int {
	for _, res := range results {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

const defaultSeconds = 12

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, d := range workloads {
		out[i] = d.Name
	}
	return out
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the driver's result line.
type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(res *runResult) resultJSON {
	defs, values := endToEnd, res.E2E
	if res.Config.Trace {
		defs, values = perLayer, res.Layers
	}
	out := resultJSON{
		Correct:   res.Failed == 0,
		Attempted: max(res.Ops, 1),
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// report prints the human-readable account of a run: the environment block,
// ops and failed ops, and every metric as <workload>/<metric> with its unit.
func report(w io.Writer, res *runResult) {
	name := res.Def.Name
	env, _ := json.Marshal(res.Env)
	fmt.Fprintf(w, "%s: env %s\n", name, env)
	fmt.Fprintf(w, "%s: ops %d, failed_ops %d, samples %d cycles\n", name, res.Ops, res.Failed, res.Samples)
	if res.Failure != "" {
		fmt.Fprintf(w, "%s: FAILED: %s\n", name, res.Failure)
	}
	for _, s := range res.Suspect {
		fmt.Fprintf(w, "%s: SUSPECT run: %s\n", name, s)
	}
	defs, values := endToEnd, res.E2E
	if res.Config.Trace {
		defs, values = perLayer, res.Layers
	}
	if len(values) == 0 {
		return
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s/%-38s %14.4f %s\n", name, d.Name, values[d.Name], d.Unit)
	}
}

// sortedKeys is a small helper for deterministic map printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
