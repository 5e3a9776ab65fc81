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

// hostSnap is a point-in-time reading of the host and this process.
type hostSnap struct {
	cpuTotal, cpuSteal uint64 // jiffies summed over the aggregate "cpu" line
	procCPU            time.Duration
}

func snapHost() hostSnap {
	total, steal := readProcStat()
	return hostSnap{cpuTotal: total, cpuSteal: steal, procCPU: processCPU()}
}

// readProcStat sums the aggregate cpu line of /proc/stat and returns it
// with its steal field. Zeroes when the file is unreadable.
func readProcStat() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				continue
			}
			// Fields 9 and 10 (guest, guest_nice) are already counted in
			// user and nice.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return total, steal
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(fields[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostReport explains a run: it is printed and written beside the
// metrics, and never filters, weights or corrects them.
type hostReport struct {
	StealShare float64 `json:"steal_share"`
	ProcessCPU float64 `json:"process_cpu_s"`
	Wall       float64 `json:"wall_s"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
}

func newHostReport(from, to hostSnap, wall time.Duration) hostReport {
	r := hostReport{
		ProcessCPU: to.procCPU.Seconds(),
		Wall:       wall.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
	if dt := to.cpuTotal - from.cpuTotal; dt > 0 {
		r.StealShare = float64(to.cpuSteal-from.cpuSteal) / float64(dt)
	}
	return r
}
