package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat and /proc/stat; Linux fixes it at 100 on every
// architecture this benchmark runs on.
const clockTicksPerSecond = 100

// parseProcStatCPU returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(b []byte) (int64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: no ')' in stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the name", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return ut + st, nil
}

// processCPUTicks reads a process's user+system CPU time in clock ticks.
func processCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in clock ticks.
type hostCPU struct {
	total, steal int64
}

// parseHostCPU reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already counted in user and nice, so it is left out of the total.
func parseHostCPU(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("procfs: unexpected /proc/stat first line %q", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("procfs: /proc/stat field %d: %w", i, err)
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// readHostCPU samples /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(b)
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two samples, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("procfs: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procfs: no VmHWM in /proc/%d/status", pid)
}
