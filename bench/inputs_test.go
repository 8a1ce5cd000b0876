package main

import (
	"fmt"
	"strings"
	"testing"
)

// specDigests replays a fleet_churn run's spec sequence without a cluster.
func specDigests(seed int64, cycles int) []string {
	def, _ := workloadByName("fleet_churn")
	hosts := make([]*host, def.Hosts)
	for i := range hosts {
		hosts[i] = &host{URL: fmt.Sprintf("http://host-%d", i)}
	}
	c := &churnRun{env: &benchEnv{Def: def, Seed: seed, Fx: &fixture{Hosts: hosts}, Warmup: 16, Cycles: cycles}}
	c.plan = newChurnPlan(seed, 16+cycles)
	var out []string
	for i := 0; i < 16+cycles; i++ {
		spec, ops := c.nextSpec(i)
		var b strings.Builder
		fmt.Fprintf(&b, "%d:", ops)
		for _, a := range spec.Agents {
			b.WriteString(a.ID + "@" + a.URL + ",")
		}
		out = append(out, b.String())
	}
	return out
}

func dayDigests(t *testing.T, seed int64, days int) ([]string, int64) {
	t.Helper()
	fx, err := newFixture(seed, "small", 0, bootExecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	st, err := fx.DayStream(days)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for d := 0; d < days; d++ {
		upd, err := st.Publish()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dayDigest(upd))
	}
	return out, fx.ScaleSeed
}

// The same seed gives the same generated inputs — base release, day sequence,
// spec sequence, victim schedule — and another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	const days, cycles = 24, 24
	d1, s1 := dayDigests(t, 5, days)
	d2, s2 := dayDigests(t, 5, days)
	d3, s3 := dayDigests(t, 6, days)
	if s1 != s2 || strings.Join(d1, "|") != strings.Join(d2, "|") {
		t.Error("seed 5 drew two different base releases or day sequences")
	}
	if s1 == s3 || strings.Join(d1, "|") == strings.Join(d3, "|") {
		t.Error("seeds 5 and 6 drew the same base release or day sequence")
	}

	a, b := specDigests(5, cycles), specDigests(5, cycles)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Error("seed 5 drew two different spec sequences")
	}
	p1, p2 := newChurnPlan(5, 16+cycles).digest(), newChurnPlan(5, 16+cycles).digest()
	if p1 != p2 {
		t.Error("seed 5 drew two different victim schedules")
	}
	differs := false
	for seed := int64(6); seed < 12; seed++ {
		if newChurnPlan(seed, 16+cycles).digest() != p1 {
			differs = true
		}
	}
	if !differs {
		t.Error("the victim schedule does not depend on the seed")
	}
}

// Whatever the seed, the inputs have the nominal size: that is what lets the
// byte and allocation counters hold a 2-3 % bound across seeds.
func TestInputsHaveNominalSizeForEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		fx, err := newFixture(seed, "small", 0, bootExecs, nil)
		if err != nil {
			t.Fatal(err)
		}
		execs := 0
		for _, p := range fx.Base {
			if !p.IsKernelImage() {
				execs += len(p.ExecutableFiles())
			}
		}
		if execs != nominalBaseExecs {
			t.Errorf("seed %d: base release has %d executables, want %d", seed, execs, nominalBaseExecs)
		}
		if len(fx.bootExecs) != bootExecs {
			t.Errorf("seed %d: %d boot executables, want %d", seed, len(fx.bootExecs), bootExecs)
		}
		fx.Close()
	}
}

// A fleet_churn spec sequence grows the fleet to size over the stagger, then
// slides it, replacing a tampered victim in the cycle after its tamper.
func TestChurnSpecSequenceShape(t *testing.T) {
	def, _ := workloadByName("fleet_churn")
	specs := specDigests(9, 16)
	plan := newChurnPlan(9, 32)
	for i, s := range specs {
		agents := strings.Count(s, ",")
		want := def.Agents
		if i < stagger {
			want = (i + 1) * def.Agents / stagger
		}
		if agents != want {
			t.Errorf("cycle %d: spec has %d agents, want %d", i, agents, want)
		}
		ops := 0
		fmt.Sscanf(s, "%d:", &ops)
		wantOps := def.Agents / stagger
		if i >= stagger {
			wantOps *= 2
			if _, tampered := plan.TamperHost[i-1]; tampered {
				wantOps += 2
			}
		}
		if ops != wantOps {
			t.Errorf("cycle %d: %d lifecycle ops, want %d", i, ops, wantOps)
		}
	}
	for c := range plan.TamperHost {
		if c < stagger || c%churnTamperEvery != 0 {
			t.Errorf("tamper scheduled in cycle %d", c)
		}
	}
}
