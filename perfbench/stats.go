package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit, in the shape the result
// line prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order so the human report reads in
// the order the workload produced them.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) put(name string, v float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencies is a sample of operation wall times.
type latencies []time.Duration

// ms returns the q-quantile in milliseconds.
func (l latencies) ms(q float64) float64 {
	xs := make([]float64, len(l))
	for i, d := range l {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}

// tailRule reports whether the p-th quantile of n samples has at least ten
// samples beyond it, the rule a reported percentile must meet.
func tailRule(n int, p float64) bool { return float64(n)*(1-p) >= 10 }

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func perMB(count, bytes int64) float64 { return share(float64(count), float64(bytes)/1e6) }
