package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gf"
)

// Host describes the machine and build a result came from.
type Host struct {
	NumCPU         int    `json:"nproc"`
	GOMAXPROCSLoad int    `json:"gomaxprocs_loadgen"`
	GOMAXPROCSSUT  int    `json:"gomaxprocs_sut"`
	SIMD           bool   `json:"gf_simd"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	Commit         string `json:"commit"`
	SourceSHA256   string `json:"source_sha256"`
	FlushPolicy    string `json:"flush_policy"`
	Clients        int    `json:"clients"`
	Loop           string `json:"load_loop"`
	// StealPct is the share of this machine's CPU time the hypervisor gave
	// to other guests while the run lasted.
	StealPct float64 `json:"cpu_steal_pct"`
	// Pressure is the kernel's pressure-stall share over the last minute
	// (PSI avg60, in %) at the end of the run: a result taken while other
	// tenants starved this machine of CPU or I/O shows it here.
	Pressure map[string]float64 `json:"pressure_avg60_pct,omitempty"`
}

// hostInfo gathers Host for the repository at root. sutPid is a running
// process under test, whose CPU affinity sets its GOMAXPROCS.
func hostInfo(root string, sutPid int) Host {
	h := Host{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCSLoad: runtime.GOMAXPROCS(0),
		SIMD:           gf.SIMDEnabled(),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(root),
		SourceSHA256:   sourceHash(root),
		FlushPolicy:    "fsync=always",
		Clients:        clients,
		Loop:           "closed",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.GOMAXPROCSSUT = sutGOMAXPROCS(sutPid)
	h.Pressure = pressure()
	hostSteal.sample()
	h.StealPct = 100 * hostSteal.Share(runStart, time.Now())
	return h
}

// runStart is when the run began.
var runStart = time.Now()

// cpuStat returns the steal and total jiffies of /proc/stat's "cpu" line.
func cpuStat() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9, 10) are already inside user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// pressure reads the avg60 of /proc/pressure/{cpu,io}: the share of the
// last minute in which some (or, for full, all) tasks stalled.
func pressure() map[string]float64 {
	out := map[string]float64{}
	for _, res := range []string{"cpu", "io"} {
		b, err := os.ReadFile("/proc/pressure/" + res)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if v, ok := strings.CutPrefix(f[2], "avg60="); ok {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					out[res+"_"+f[0]] = x
				}
			}
		}
	}
	return out
}

// sutGOMAXPROCS is what the Go runtime of process pid chose: the
// GOMAXPROCS it inherited from this process's environment if set, else the
// CPUs in its affinity mask.
func sutGOMAXPROCS(pid int) int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return countCPUList(strings.TrimSpace(v))
		}
	}
	return 0
}

// countCPUList counts the CPUs in a list such as "0-3,8,10-11".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// gitCommit returns HEAD's hash when root is a git work tree; benchmark
// checkouts usually are not, and sourceHash identifies the build instead.
// It never asks git about a directory above root.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git work tree)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over the path and content of every Go source and
// go.mod file of the program under test (the benchmark's own files and
// build outputs excluded).
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == benchDir || strings.HasPrefix(rel, ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
