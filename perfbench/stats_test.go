package main

import (
	"testing"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	span := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted and touching", []interval{{50, 70}, {10, 30}, {30, 50}}, 40},
		{"clipped to the span", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside the span", []interval{{100, 120}, {-10, 0}}, 100},
		{"cover the span", []interval{{0, 60}, {40, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if _, _, n, ok := tail(make([]float64, tailBeyond)); ok || n != tailBeyond {
		t.Fatalf("tail of %d samples: ok=%v n=%d, want no tail", tailBeyond, ok, n)
	}
	// 1..100 shuffled: the highest value with ten above it is 90, p90.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	v, pct, n, ok := tail(xs)
	if !ok || v != 90 || pct != 90 || n != 100 {
		t.Fatalf("tail(1..100) = %v p%v n=%d ok=%v, want 90 p90 n=100", v, pct, n, ok)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != tailBeyond {
		t.Fatalf("%d samples above the tail, want %d", above, tailBeyond)
	}
	// 11 samples: the smallest has exactly ten beyond it.
	v, pct, n, ok = tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || v != 1 || n != 11 || pct != 100.0/11 {
		t.Fatalf("tail of 11 = %v p%v n=%d ok=%v, want 1", v, pct, n, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"wall_s", "exp.fig10.wall_s", "prefetch.ghb.access_ns", "cache.l1.hit_ratio", "a-b", "9x"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "ghb-pc/dc", "a b", "x:y", "t2+p1", "wall_s\n", "ms/op"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("metricSet.set accepted an illegal name")
		}
	}()
	newMetricSet().set("prefetch.ghb-pc/dc.access_ns", 1, "ns")
}

func TestRegistryMetric(t *testing.T) {
	for in, want := range map[string]string{
		"ghb-pc/dc":        "ghb",
		"fdp":              "fdp",
		"spp:threshold=30": "spp",
		"t2+p1":            "t2",
		"tpc":              "tpc",
		"stream_buf":       "stream_buf",
	} {
		if got := registryMetric(in); got != want {
			t.Errorf("registryMetric(%q) = %q, want %q", in, got, want)
		}
	}
	stems, _ := pfStems()
	want := []string{"ghb", "fdp", "vldp", "spp", "bop", "ampm", "sms", "tpc"}
	if len(stems) != len(want) {
		t.Fatalf("pfStems = %v, want %v", stems, want)
	}
	for i := range want {
		if stems[i] != want[i] || !validName("prefetch."+stems[i]+".access_ns") {
			t.Fatalf("pfStems = %v, want %v", stems, want)
		}
	}
}
