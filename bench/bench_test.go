package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return bf
}

// BENCHMARK.json and the code list the same workloads and metrics, with the
// same units, directions and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound):
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the code's %v", kind, m.Name, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract needs setup_s [s, lower]; have %+v", endToEnd[0])
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", d.Name, d.Bound, endToEnd[0].Bound)
		}
	}
}

// smoke runs a workload for three measured cycles through the command's own
// entry point and returns its exit code and result line.
func smoke(t *testing.T, args ...string) (int, resultJSON, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"--smoke"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// Every workload compiles, runs and passes its correctness checks, and the
// result line carries every name BENCHMARK.json lists for the mode and
// nothing else. The traced run of a workload executes everything its
// untraced run does, so one workload stands for the untraced mode.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	bf := loadBenchmarkFile(t)
	type modeCase struct {
		trace string
		want  []metricJSON
	}
	for _, w := range bf.Workloads {
		modes := []modeCase{{"1", bf.PerLayer}}
		if w.Name == "restart_recover" {
			modes = append(modes, modeCase{"0", bf.EndToEnd})
		}
		for _, mode := range modes {
			t.Run(w.Name+"/trace="+mode.trace, func(t *testing.T) {
				code, res, out := smoke(t, "--workload", w.Name, "--seed", "7", "--trace", mode.trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if !strings.Contains(out, "failed_ops 0") {
					t.Errorf("report does not print ops and failed_ops:\n%s", out)
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing from the result line", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, w.Name+"/"+m.Name+" ") {
						t.Errorf("report does not print %s/%s", w.Name, m.Name)
					}
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				if mode.trace == "0" {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v: must never be 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// A check that fails — here a revocation that never reaches the receiver —
// is a failed operation and a non-zero exit.
func TestFailedCheckExitsNonZero(t *testing.T) {
	res, err := run(context.Background(), runConfig{
		Workload: "fleet_churn", Seed: 3, Seconds: defaultSeconds, Scale: "small", Smoke: true,
		Fault: faultLoseRevocation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || !strings.Contains(res.Failure, "revocation") {
		t.Fatalf("lost revocation not caught: failed %d, failure %q", res.Failed, res.Failure)
	}
	if line := resultLine(res); line.Correct || line.Failed == 0 {
		t.Errorf("result line reports the run correct: %+v", line)
	}
	if code := exitCode([]*runResult{res}); code == 0 {
		t.Error("a run with a failed operation exits 0")
	}
}

func TestUnknownWorkloadAndScaleAreErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exits 0")
	}
	if code := realMain([]string{"--workload", "steady_sessions", "--scale", "paper", "--smoke"}, &out, &errOut); code == 0 {
		t.Error("unrunnable scale exits 0")
	}
}
