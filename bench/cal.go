package main

import (
	"math"
	"sort"
	"time"
)

// The calibration kernel is the benchmark's unit of time. Wall time on a
// shared sandbox drifts by 2x between identical runs minutes apart, while the
// ratio of an op to a fixed memory-bound kernel run right beside it stays
// within a few percent, so every gated time is reported in "cal" (multiples
// of one kernel run) and raw milliseconds are printed as host.* only.
//
// The kernel is a single goroutine doing a seeded scatter then gather over
// two 8 MiB int64 arrays (past L2, like the engine's delivery arenas). Its
// limit: being single-threaded it does not see a lost second core.
const (
	calWords  = 1 << 20 // 8 MiB per array
	calPasses = 3
	// calRefS is what one kernel run takes on the sandbox in its usual state;
	// it turns set-up time in cal units back into seconds.
	calRefS = 0.040
)

type calibrator struct {
	src, dst []int64
	sink     int64
}

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]int64, calWords), dst: make([]int64, calWords)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.src {
		x = x*6364136223846793005 + 1442695040888963407
		c.src[i] = int64(x >> 1)
	}
	return c
}

// run executes the kernel once and returns its wall time in seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	var s int64
	for pass := 0; pass < calPasses; pass++ {
		x := uint64(pass + 1)
		for i, v := range c.src {
			x = x*6364136223846793005 + 1442695040888963407
			c.dst[x>>44] += v ^ int64(i)
		}
		for _, v := range c.dst {
			x = x*6364136223846793005 + 1442695040888963407
			s += v + c.src[x>>44]
		}
	}
	c.sink += s
	return time.Since(t0).Seconds()
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// iqrShare is the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / m
}
