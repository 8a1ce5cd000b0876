package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envBlock says where and how a run was made, so a reader can tell how far
// to trust it.
type envBlock struct {
	CPUModel        string  `json:"cpu_model"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	PollConcurrency int     `json:"poll_concurrency"`
	Storage         string  `json:"storage"`
	Seed            int64   `json:"seed"`
	Scale           string  `json:"scale"`
	WarmupCycles    int     `json:"warmup_cycles"`
	Cycles          int     `json:"cycles"`
	Setups          int     `json:"setups"`
	K               int     `json:"k"`
	CalibRefMs      float64 `json:"calib_ref_ms"`
}

func readEnv(cfg runConfig, res *runResult) envBlock {
	setups := setupRuns
	if cfg.Smoke {
		setups = 1
	}
	return envBlock{
		CPUModel:        cpuModel(),
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		PollConcurrency: pollConcurrencyInEffect(),
		Storage:         "process memory (memfs.go)",
		Seed:            cfg.Seed,
		Scale:           cfg.Scale,
		WarmupCycles:    res.Warmup,
		Cycles:          res.Cycles,
		Setups:          setups,
		K:               calibPasses,
		CalibRefMs:      calibRefMs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cpuJiffies is the first line of /proc/stat.
type cpuJiffies struct{ total, steal uint64 }

// readSteal reads the host's cumulative CPU accounting; the zero value where
// /proc/stat is unreadable.
func readSteal() cpuJiffies {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuJiffies{}
	}
	var j cpuJiffies
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuJiffies{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			j.total += v
		}
		if i == 7 {
			j.steal = v
		}
	}
	return j
}

// stealShare is the share of CPU time the hypervisor gave to someone else
// between two readings.
func stealShare(a, b cpuJiffies) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
