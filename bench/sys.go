package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procField reads one "Key: value" line from a /proc text file; "" when
// the file or the key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB,
// falling back to getrusage's maxrss where /proc is absent.
func peakRSSMB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) >= 1 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
			return kb / 1024
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostInfo is stamped on every output so numbers are never read without
// the machine and the pinned parallelism they were taken with.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Par        int    `json:"par"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// pinnedWorkers is the Workers/Par setting of every workload:
// min(nproc, 4), so a wider host does not silently change the workload.
func pinnedWorkers() int { return min(runtime.NumCPU(), 4) }

func currentHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    pinnedWorkers(),
		Par:        pinnedWorkers(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// stopwatch measures one timed region's wall and CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuSeconds()} }

func (s stopwatch) stop() (wallS, cpuS float64) {
	return time.Since(s.wall).Seconds(), cpuSeconds() - s.cpu
}
