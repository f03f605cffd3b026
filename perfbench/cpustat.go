package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTimes is the machine-wide /proc/stat CPU time split, in clock ticks.
type cpuTimes struct{ busy, steal int64 }

// readCPUTimes returns the current totals (zero where /proc/stat is not
// available).
func readCPUTimes() cpuTimes {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stopwatch measures a phase's wall time and how much of the CPU time the
// guest asked for during it the hypervisor gave to other guests.
type stopwatch struct {
	t0  time.Time
	cpu cpuTimes
}

func startStopwatch() stopwatch { return stopwatch{t0: time.Now(), cpu: readCPUTimes()} }

// elapsed returns the wall time since the start and the share of the
// guest's CPU demand meanwhile that was served: busy / (busy + steal), 1
// where nothing was stolen. Scaling a wall time by it estimates the time
// the phase would have taken had the guest's vCPUs not been descheduled.
func (s stopwatch) elapsed() (time.Duration, float64) {
	c := readCPUTimes()
	busy, steal := c.busy-s.cpu.busy, c.steal-s.cpu.steal
	return time.Since(s.t0), 1 - share(float64(steal), float64(busy+steal))
}
