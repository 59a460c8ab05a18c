package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// hostTicks is the aggregate "cpu" line of /proc/stat: steal and all ticks.
type hostTicks struct{ steal, total uint64 }

func readHostTicks() (hostTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t hostTicks
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so it is left out.
		for i, s := range fields[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return hostTicks{}, fmt.Errorf("parsing /proc/stat: %w", err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	return hostTicks{}, fmt.Errorf("no cpu line in /proc/stat")
}

// stealShare is the share of all ticks between a and b that the hypervisor
// gave to other guests.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// procRunSeconds is the time a process's threads have run on a CPU, summed
// from their schedstat at nanosecond resolution.
func procRunSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	ns := uint64(0)
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread has exited
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat of task %s", t.Name())
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat: %w", err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// resetPeakRSS resets a process's VmHWM to its current resident set, so a
// later peakRSSMB covers only what runs after it.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB is a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuMask is a CPU affinity mask, as sched_setaffinity takes it.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func schedAffinity(trap uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// serveCPUs picks the CPUs of a serving run: the daemon gets the highest
// CPU this process may use, the generator the lowest. On one CPU they
// share it.
func serveCPUs() (daemonCPU, genCPU int, err error) {
	var m cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &m); err != nil {
		return 0, 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	daemonCPU, genCPU = -1, -1
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			if genCPU < 0 {
				genCPU = cpu
			}
			daemonCPU = cpu
		}
	}
	if genCPU < 0 {
		return 0, 0, fmt.Errorf("empty CPU affinity mask")
	}
	return daemonCPU, genCPU, nil
}

// onCPU runs f on the calling goroutine with its OS thread bound to cpu,
// and restores the thread's mask after. A process started in f inherits
// the binding.
func onCPU(cpu int, f func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, m cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	m[cpu/64] |= 1 << (cpu % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &m); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := f()
	if e := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &old); e != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity: %w", e)
	}
	return err
}
