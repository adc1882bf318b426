package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// The host can be a virtual machine that shares its CPUs: for tens of
// seconds at a time the hypervisor steals 10–20% of them, and a
// repetition timed then reads up to 40% slow. A repetition that saw more
// than stealLimit of the machine's CPU time stolen is run again, at most
// maxTries times in all, and the least-stolen one is reported. A steady
// 2–4% of steal is common there and costs a few percent; the limit lets
// it pass, since retrying it would triple a run's length for little.
const (
	stealLimit = 0.05
	maxTries   = 3
)

// cpuTicks is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat; without that
// file it returns zeros, which read as no steal.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq steal
// [guest guest_nice]"; guest time is already part of user and nice.
func parseCPULine(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the machine's CPU time stolen between two
// readings.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// leastStolen calls try until one call sees at most stealLimit of the CPU
// time stolen, or maxTries calls were made, and returns the least-stolen
// result with its steal share and the number of calls.
func leastStolen[T any](try func() (T, error)) (best T, steal float64, tries int, err error) {
	steal = 2 // above any share
	for tries < maxTries {
		before := readCPUTicks()
		r, err := try()
		if err != nil {
			return best, 0, tries, err
		}
		tries++
		if st := stealShare(before, readCPUTicks()); st < steal {
			best, steal = r, st
		}
		if steal <= stealLimit {
			break
		}
	}
	return best, steal, tries, nil
}
