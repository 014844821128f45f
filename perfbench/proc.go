package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux configuration Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time: getrusage for this
// process (pid 0), /proc/<pid>/stat otherwise, whose resolution is one
// tick (10 ms) — the benchmark reads it across windows of seconds.
func procCPU(pid int) (time.Duration, error) {
	if pid == 0 {
		return processCPU(), nil
	}
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed %s", procPath(pid, "stat"))
	}
	f := strings.Fields(string(data[i+1:]))
	// utime and stime are fields 14 and 15 of stat; f[0] is field 3.
	if len(f) < 13 {
		return 0, fmt.Errorf("short %s", procPath(pid, "stat"))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", procPath(pid, "stat"), err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// windowCount is how many equal op-count windows a timed phase is split
// into for peak_rss_mb.
const windowCount = 10

// windows measures a timed phase of `ops` ops in one process: its wall
// time and CPU time from the first op's issue to the last op's answer,
// and its peak resident set as the median of windowCount windows'
// peaks. The kernel's high-water mark is reset at each window start
// (clear_refs "5") and read at its end: one run-wide maximum would
// hinge on where a single collection cycle happened to peak.
type windows struct {
	pid   int
	ops   int
	mu    sync.Mutex
	done  int
	first windowMark
	last  windowMark
	peaks []float64 // MiB
	err   error
}

type windowMark struct {
	t   time.Time
	cpu time.Duration
}

func (w *windows) mark() (windowMark, error) {
	cpu, err := procCPU(w.pid)
	return windowMark{t: time.Now(), cpu: cpu}, err
}

// newWindows starts measuring a phase of `ops` ops in process pid
// (0 = this process).
func newWindows(pid, ops int) *windows {
	w := &windows{pid: pid, ops: ops}
	if w.first, w.err = w.mark(); w.err == nil {
		w.err = resetPeakRSS(pid)
	}
	return w
}

// tick records one completed op, closing a window at its boundary.
// Safe for concurrent use.
func (w *windows) tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done++
	for w.err == nil && len(w.peaks) < windowCount && w.done >= (len(w.peaks)+1)*w.ops/windowCount {
		var peak float64
		if peak, w.err = procPeakRSSMB(w.pid); w.err != nil {
			return
		}
		w.peaks = append(w.peaks, peak)
		if len(w.peaks) == windowCount {
			w.last, w.err = w.mark()
			return
		}
		w.err = resetPeakRSS(w.pid)
	}
}

// metrics adds ops_per_s, cpu_ms_per_op and peak_rss_mb.
func (w *windows) metrics(m map[string]float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return fmt.Errorf("measurement windows: %w", w.err)
	}
	if len(w.peaks) != windowCount {
		return fmt.Errorf("measurement windows: %d of %d closed", len(w.peaks), windowCount)
	}
	n := float64(w.ops)
	m["ops_per_s"] = n / w.last.t.Sub(w.first.t).Seconds()
	m["cpu_ms_per_op"] = ms(w.last.cpu-w.first.cpu) / n
	m["peak_rss_mb"] = median(w.peaks)
	return nil
}

// resetPeakRSS resets a process's VmHWM to its current resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}
