package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// procSample is one reading of a process's /proc counters.
type procSample struct {
	cpuTicks   uint64 // utime+stime, in clock ticks
	syscr      uint64 // read syscalls
	syscw      uint64 // write syscalls
	writeBytes uint64 // bytes sent to the storage layer
	ctxSwitch  uint64 // voluntary+involuntary, summed over live threads
	hwmKB      uint64 // peak resident set (VmHWM)
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux
// fixes it at 100 on every architecture Go supports.
const clkTck = 100

// cpuMicros converts clock ticks to microseconds.
func cpuMicros(ticks uint64) float64 { return float64(ticks) * 1e6 / clkTck }

// readProc samples pid's counters.
func readProc(pid int) (procSample, error) {
	var s procSample
	base := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15 (1-based, as in proc(5)).
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("perfbench: short %s/stat", base)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	s.cpuTicks = ut + st

	io, err := os.ReadFile(base + "/io")
	if err != nil {
		return s, err
	}
	kv := parseKV(io)
	s.syscr, s.syscw, s.writeBytes = kv["syscr"], kv["syscw"], kv["write_bytes"]

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKB = parseKV(status)["VmHWM"]

	// Context switches are per thread; the process total is the sum over
	// its threads (Go threads live as long as the process).
	tasks, _ := filepath.Glob(base + "/task/*/status")
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		kv := parseKV(b)
		s.ctxSwitch += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// readCPUNanos reads pid's CPU time in nanoseconds: the sum of its
// threads' run time from /proc/<pid>/task/*/schedstat, which unlike
// /proc/<pid>/stat is not rounded to clock ticks. Go threads live as
// long as the process, so no thread's time drops out of the sum.
func readCPUNanos(pid int) (uint64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if len(tasks) == 0 {
		return 0, fmt.Errorf("perfbench: no threads of process %d", pid)
	}
	var sum uint64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, _ := strconv.ParseUint(f[0], 10, 64)
		sum += ns
	}
	return sum, nil
}

// parseKV reads "key: value [unit]" lines into numbers.
func parseKV(b []byte) map[string]uint64 {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// cpuTimes is the aggregate line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes samples the machine-wide CPU time counters.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("perfbench: unexpected /proc/stat")
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user.
	for i, v := range f[1:min(len(f), 9)] {
		n, _ := strconv.ParseUint(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stealPct is the share of CPU time the hypervisor took between a and b.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fingerprint describes the machine and build a result was measured on.
type fingerprint struct {
	CPUModel       string `json:"cpu_model"`
	NProc          int    `json:"nproc"`
	GenGOMAXPROCS  int    `json:"gomaxprocs_generator"`
	HostGOMAXPROCS int    `json:"gomaxprocs_host"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	GitSHA         string `json:"git_sha"`
}

// hostFingerprint collects everything but the host process's GOMAXPROCS,
// which the replica host reports itself.
func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:         runtime.NumCPU(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      "unknown",
		Kernel:        "unknown",
		GitSHA:        "unknown (not built from a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			fp.GitSHA = rev + dirty
		}
	}
	return fp
}
