package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the kernel and restarts this
// process's peak-RSS mark (VmHWM), so that a peak read later covers what
// ran since and not the garbage of a set-up the harness repeated for a
// median. Where /proc/self/clear_refs cannot be written the mark stays
// the lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakRSSMB returns this process's VmHWM in MB.
func selfPeakRSSMB() float64 {
	mb, _ := procPeakRSSMB(os.Getpid())
	return mb
}

// procCPU returns the CPU time another process has run for, summed over
// its threads from /proc/<pid>/task/*/schedstat, whose first field is
// nanoseconds on a core. The utime and stime of /proc/<pid>/stat count
// 10 ms ticks, which is 2 % of the half second a serving phase costs.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat", pid)
	}
	var total time.Duration
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procPeakRSSMB returns another process's VmHWM in MB.
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// pinCore is the core the serving workloads run on, server and load
// generator both: the last one, away from the interrupts most boxes
// deliver to core 0.
func pinCore() int { return runtime.NumCPU() - 1 }

// canPin reports whether taskset works here.
func canPin() bool {
	path, err := exec.LookPath("taskset")
	if err != nil {
		return false
	}
	return exec.Command(path, "-c", strconv.Itoa(pinCore()), "true").Run() == nil
}

// pinSelf moves every thread of this process to pinCore. Threads
// created later inherit the mask.
func pinSelf() error {
	if out, err := exec.Command("taskset", "-a", "-cp", strconv.Itoa(pinCore()), strconv.Itoa(os.Getpid())).CombinedOutput(); err != nil {
		return fmt.Errorf("taskset: %v: %s", err, out)
	}
	return nil
}
