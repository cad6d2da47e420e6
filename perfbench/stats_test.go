package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q           float64
		value       float64
		beyond      int
		ok          bool
		description string
	}{
		{0.50, 50, 50, true, "median of 1..100"},
		{0.90, 90, 10, true, "p90 leaves exactly ten above"},
		{0.99, 99, 1, false, "p99 of 100 samples has one above"},
		{1.00, 100, 0, false, "maximum"},
	} {
		p := percentile(append([]int64(nil), xs...), c.q)
		if p.Value != c.value || p.Beyond != c.beyond || p.OK != c.ok || p.Samples != 100 {
			t.Errorf("%s: got %+v, want value %v beyond %d ok %v", c.description, p, c.value, c.beyond, c.ok)
		}
	}
	if p := percentile(nil, 0.5); p.OK || p.Samples != 0 {
		t.Errorf("empty: got %+v", p)
	}
}

func TestSlicedPctGroupsSlicesUntilSupported(t *testing.T) {
	// Three slices of 600 samples: p99 needs 1001 per group, so the
	// first two slices form one group and the third joins it as a
	// remainder — one group, which falls back to the pooled quantile.
	slice := func(base int64, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = base + int64(i)
		}
		return s
	}
	p := slicedPct([][]int64{slice(0, 600), slice(0, 600), slice(0, 600)}, 0.99)
	if p.Groups != 0 || p.Samples != 1800 || !p.OK {
		t.Errorf("pooled fallback: got %+v", p)
	}
	// Four slices of 1100: four groups, each its own p99; the median of
	// {1088, 2088, 3088, 4088} is 2588.
	p = slicedPct([][]int64{slice(0, 1100), slice(1000, 1100), slice(2000, 1100), slice(3000, 1100)}, 0.99)
	if p.Groups != 4 || p.Value != 2588 || p.Samples != 4400 || !p.OK || p.Beyond != 11 {
		t.Errorf("four groups: got %+v", p)
	}
	// A disturbed slice moves the median of medians only by its rank.
	p = slicedPct([][]int64{slice(0, 100), slice(0, 100), slice(1e6, 100)}, 0.5)
	if p.Groups != 3 || p.Value != 49 {
		t.Errorf("disturbed slice: got %+v", p)
	}
}

func TestRatioBases(t *testing.T) {
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("ratio(1, 4) = %v", r)
	}
	if r := perKop(3, 1500); r != 2 {
		t.Errorf("perKop(3, 1500) = %v, want 2", r)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := mean([]int64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{Start: 100, Dur: 100} // [100, 200)
	for _, c := range []struct {
		children []interval
		want     int64
		what     string
	}{
		{nil, 100, "no children"},
		{[]interval{{110, 20}, {150, 10}}, 70, "disjoint children"},
		{[]interval{{110, 40}, {120, 10}, {140, 20}}, 50, "nested and overlapping children count once"},
		{[]interval{{50, 70}, {190, 50}}, 70, "children clipped to the parent"},
		{[]interval{{0, 50}, {300, 5}}, 100, "children outside the parent"},
		{[]interval{{100, 100}}, 0, "a child covering the parent"},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.what, got, c.want)
		}
	}
}

func TestUnexplainedFrac(t *testing.T) {
	if f := unexplainedFrac(1000, []float64{200, 300, 100}); math.Abs(f-0.4) > 1e-12 {
		t.Errorf("unexplained = %v, want 0.4", f)
	}
	if f := unexplainedFrac(1000, []float64{800, 400}); math.Abs(f+0.2) > 1e-12 {
		t.Errorf("spans over the CPU time: unexplained = %v, want -0.2", f)
	}
	if f := unexplainedFrac(0, []float64{1}); f != 0 {
		t.Errorf("zero CPU base: %v, want 0", f)
	}
}

func TestValueTags(t *testing.T) {
	for _, k := range []uint64{1, 2, 1 << 40, ^uint64(0)} {
		v := valueFor(k, 77)
		if !tagOK(k, v) || tagOK(k+1, v) || uint32(v) != 77 {
			t.Errorf("key %d: value %#x tag check failed", k, v)
		}
	}
}
