package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// slice is one timed stretch between two calibration runs: one op of an
// in-process workload, or svcSliceOps requests of svc_mixed with the callers
// quiesced at both ends.
type slice struct {
	wall    float64   // seconds
	lat     []float64 // per-op latencies, seconds
	mallocs uint64
	bytes   uint64
}

// samples is a pass's raw measurement: cal[i] and cal[i+1] bracket slices[i].
type samples struct {
	cal    []float64
	slices []slice
}

// unitOf returns the calibration unit of slice i: the mean of the kernel runs
// on either side of it.
func (s *samples) unitOf(i int) float64 { return (s.cal[i] + s.cal[i+1]) / 2 }

func (s *samples) ops() int {
	n := 0
	for _, sl := range s.slices {
		n += len(sl.lat)
	}
	return n
}

// latCal returns every op latency in calibration units.
func (s *samples) latCal() []float64 {
	var out []float64
	for i, sl := range s.slices {
		u := s.unitOf(i)
		for _, l := range sl.lat {
			out = append(out, l/u)
		}
	}
	return out
}

// windowCal is the pass's non-calibration time in calibration units.
func (s *samples) windowCal() float64 {
	var w float64
	for i, sl := range s.slices {
		w += sl.wall / s.unitOf(i)
	}
	return w
}

// memCounter reads the allocator's cumulative counters; deltas across a slice
// give allocs and bytes per op.
type memCounter struct{ ms runtime.MemStats }

func (m *memCounter) read() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc
}

// timedPass runs whole cycles for at least seconds (and at least minOps
// ops), one calibration run before every op and one after the last, checking
// every result outside the timed spans.
func timedPass(e *env, cal *calibrator, seconds float64, minOps int) (*samples, cost, error) {
	if e.svc != nil {
		return e.svc.timedPass(cal, seconds, minOps)
	}
	var (
		s   samples
		c   cost
		mem memCounter
	)
	start := time.Now()
	for len(s.slices) < minOps || time.Since(start).Seconds() < seconds {
		cyc, err := e.nextCycle()
		if err != nil {
			return nil, c, err
		}
		for _, op := range cyc {
			results := make([]result, len(op))
			s.cal = append(s.cal, cal.run())
			m0, b0 := mem.read()
			t0 := time.Now()
			for k, u := range op {
				results[k] = e.call(u)
			}
			wall := time.Since(t0).Seconds()
			m1, b1 := mem.read()
			s.slices = append(s.slices, slice{wall: wall, lat: []float64{wall}, mallocs: m1 - m0, bytes: b1 - b0})
			for k, u := range op {
				e.check(u, results[k], &c)
			}
		}
	}
	s.cal = append(s.cal, cal.run())
	return &s, c, nil
}

// endToEnd turns a timed pass into the end-to-end metrics.
func endToEnd(e *env, s *samples, c cost, setupS float64) map[string]metric {
	ops := float64(s.ops())
	var mallocs, bytes uint64
	for _, sl := range s.slices {
		mallocs += sl.mallocs
		bytes += sl.bytes
	}
	lat := s.latCal()
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"op_p50_cal":       {median(lat), "cal"},
		"op_tail_cal":      {percentile(lat, e.spec.tail), "cal"},
		"throughput_cal":   {ops / s.windowCal(), "ops/cal"},
		"rounds_per_op":    {exactCount(float64(c.rounds) / ops), "rounds"},
		"words_per_op":     {exactCount(float64(c.words) / ops), "words"},
		"allocs_per_op":    {float64(mallocs) / ops, "count"},
		"alloc_kib_per_op": {float64(bytes) / 1024 / ops, "KiB"},
		"peak_rss_mib":     {peakRSSMiB(), "MiB"},
		"ok_share":         {float64(e.attempted-e.failed) / float64(e.attempted), "share"},
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
