package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies the host a result came from. Results with
// different fingerprints are never compared.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	f := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	if file, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		file.Close()
	}
	return f
}

// cpuTimes is the host-wide line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	var t cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for i, s := range f[1:] {
		if i >= 8 { // guest time is already counted in user
			break
		}
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of host CPU time stolen by the hypervisor between
// two readings.
func stealFrac(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
