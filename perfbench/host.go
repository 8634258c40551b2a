package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference host is a virtual machine whose vCPUs the hypervisor
// steals now and then: for seconds at a time the server runs at a fraction
// of its speed, and an open loop's latencies swing by 2-3x. The benchmark
// cuts the measured window into slices, reads the host's steal counter at
// every slice boundary, and computes the metrics over the slices with
// little steal. Slices lose nothing else: correctness covers every request.
const (
	sliceLen = 5 * time.Second
	maxSteal = 0.05 // slices with a larger stolen share of CPU time are dropped
)

// slices cuts w into equal slices of about sliceLen.
func (w window) slices() (n int, each time.Duration) {
	total := w.to.Sub(w.from)
	n = max(1, int(total/sliceLen))
	return n, total / time.Duration(n)
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: steal and total
// ticks.
func cpuTimes() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// watchSteal blocks until w ends and returns the stolen share of CPU time
// in each slice of w.
func watchSteal(w window) ([]float64, error) {
	time.Sleep(time.Until(w.from))
	s0, t0, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	n, each := w.slices()
	shares := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(w.from.Add(time.Duration(i) * each)))
		s1, t1, err := cpuTimes()
		if err != nil {
			return nil, err
		}
		shares = append(shares, float64(s1-s0)/float64(max(t1-t0, 1)))
		s0, t0 = s1, t1
	}
	return shares, nil
}

// quietSlices marks the slices to measure: those with at most maxSteal of
// the CPU stolen, or, when fewer than half the slices are that quiet, the
// least-stolen half, so a run never rests on a sliver of its window.
func quietSlices(shares []float64) []bool {
	keep := make([]bool, len(shares))
	n := 0
	for i, s := range shares {
		if s <= maxSteal {
			keep[i] = true
			n++
		}
	}
	half := (len(shares) + 1) / 2
	if n >= half {
		return keep
	}
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	for _, i := range order[:half] {
		keep[i] = true
	}
	return keep
}
