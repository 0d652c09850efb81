package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// metricName is the grammar every printed metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether s is a legal metric name.
func validName(s string) bool { return metricName.MatchString(s) }

// registryMetric turns a prefetcher registry name (or spec string) into the
// stem used in metric names: everything from the first character outside
// [A-Za-z0-9_] on is dropped, so "ghb-pc/dc" becomes "ghb" and
// "spp:threshold=30" becomes "spp".
func registryMetric(name string) string {
	i := strings.IndexFunc(name, func(r rune) bool {
		return !(r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z')
	})
	if i >= 0 {
		name = name[:i]
	}
	return name
}

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile that still has at least tailBeyond
// samples above it: with the samples sorted ascending, the value at index
// n-1-tailBeyond. It also returns that percentile (the share of samples at
// or below the value, in percent) and the sample count. ok is false when
// there are too few samples to have any tail at all.
func tail(xs []float64) (v, pct float64, n int, ok bool) {
	n = len(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		return 0, 0, n, false
	}
	return sorted(xs)[i], 100 * float64(i+1) / float64(n), n, true
}

// interval is a closed-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping parts once.
func covered(lo, hi int64, ivs []interval) int64 {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clip = append(clip, interval{s, e})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].start < clip[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clip {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span).
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - covered(span.start, span.end, children)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics in the order they are first set,
// rejecting illegal names.
type metricSet struct {
	m     map[string]metric
	order []string
	// notes are printed with the metrics: sample counts, and why a layer the
	// workload does not exercise reads 0.
	notes []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: illegal metric name %q", name))
	}
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}
