package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of an ascending slice, interpolating linearly
// between the two nearest ranks. It is NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// geomean is the geometric mean of the positive values in xs; ratios and
// per-subject times of very different scale are averaged this way so that
// no one subject dominates. It is NaN when no value is positive.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timing is a named group of latency samples (one subject, or one
// subject/algorithm pair) in the unit its metric reports.
type timing struct {
	keys []string             // insertion order, so reports are stable
	by   map[string][]float64 // key → samples
}

func newTiming() *timing { return &timing{by: make(map[string][]float64)} }

func (t *timing) add(key string, v float64) {
	if _, ok := t.by[key]; !ok {
		t.keys = append(t.keys, key)
	}
	t.by[key] = append(t.by[key], v)
}

func (t *timing) count() int {
	n := 0
	for _, xs := range t.by {
		n += len(xs)
	}
	return n
}

// geoQuantile is the geometric mean over groups of each group's q-quantile.
func (t *timing) geoQuantile(q float64) float64 {
	per := make([]float64, 0, len(t.keys))
	for _, k := range t.keys {
		per = append(per, quantile(sortedCopy(t.by[k]), q))
	}
	return geomean(per)
}

// timingMetric reports a grouped timing as the geometric mean over groups
// of each group's median, carrying the matching p99 and the sample count.
func (t *timing) metric(name, unit string) metric {
	return metric{Name: name, Unit: unit, Value: t.geoQuantile(0.5),
		N: t.count(), Median: t.geoQuantile(0.5), P99: t.geoQuantile(0.99)}
}

// pooledMetric reports the q-quantile of one pooled sample, with its median,
// p99 and count.
func pooledMetric(name, unit string, xs []float64, q float64) metric {
	s := sortedCopy(xs)
	return metric{Name: name, Unit: unit, Value: quantile(s, q),
		N: len(s), Median: quantile(s, 0.5), P99: quantile(s, 0.99)}
}
