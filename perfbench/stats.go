package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile's rank for
// the percentile to be reported: fewer, and the value is one or two
// outliers rather than a property of the distribution.
const minBeyond = 10

// pct is an exact percentile of raw samples, with the evidence behind it.
type pct struct {
	Value   float64   // in the samples' unit
	Samples int       // samples the percentile was taken over
	Beyond  int       // samples ranked above it (fewest in any group)
	OK      bool      // Beyond >= minBeyond
	Groups  int       // time-slice groups it is the median over (0: pooled)
	Series  []float64 // the groups' values
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest sample with at least q·n samples at or below
// it. It sorts samples in place.
func percentile(samples []int64, q float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{}
	}
	slices.Sort(samples)
	r := int(math.Ceil(q*float64(n))) - 1
	r = max(0, min(r, n-1))
	beyond := n - 1 - r
	return pct{Value: float64(samples[r]), Samples: n, Beyond: beyond, OK: beyond >= minBeyond}
}

// slicedPct is the median over time slices of each slice's exact
// q-quantile, so that one disturbed slice cannot move the result. The
// samples arrive grouped by the slice they were taken in; consecutive
// slices are merged until each group holds enough samples to put at
// least minBeyond above its quantile (a short remainder joins the last
// group). Too few samples for two groups yield the pooled quantile.
func slicedPct(bySlice [][]int64, q float64) pct {
	need := int(math.Ceil(minBeyond/(1-q))) + 1
	var groups [][]int64
	var cur []int64
	for _, s := range bySlice {
		cur = append(cur, s...)
		if len(cur) >= need {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) < 2 {
		return percentile(append(slices.Concat(groups...), cur...), q)
	}
	groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	out := pct{Beyond: math.MaxInt, OK: true, Groups: len(groups)}
	var vals []float64
	for _, g := range groups {
		p := percentile(g, q)
		vals = append(vals, p.Value)
		out.Samples += p.Samples
		out.Beyond = min(out.Beyond, p.Beyond)
		out.OK = out.OK && p.OK
	}
	out.Value = median(vals)
	out.Series = vals
	return out
}

// scaled returns p with its value divided by div (for unit changes).
func (p pct) scaled(div float64) pct {
	p.Value /= div
	p.Series = slices.Clone(p.Series)
	for i := range p.Series {
		p.Series[i] /= div
	}
	return p
}

// median returns the middle value of xs (mean of the middle two for an
// even count), without modifying xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when the base den is zero: a ratio over
// no events is reported as 0 together with its base, never as NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perKop expresses an event count per thousand operations.
func perKop(events, ops uint64) float64 {
	return ratio(1000*float64(events), float64(ops))
}

// interval is a span's extent on one clock, [Start, Start+Dur).
type interval struct{ Start, Dur int64 }

func (iv interval) end() int64 { return iv.Start + iv.Dur }

// selfTime is a span's duration minus the part of its interval that
// its child spans cover: children are clipped to the parent and their
// overlaps counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s := max(c.Start, parent.Start)
		e := min(c.end(), parent.end())
		if e > s {
			clipped = append(clipped, interval{s, e - s})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	var covered int64
	curS, curE := int64(0), int64(math.MinInt64)
	for _, c := range clipped {
		if c.Start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.Start, c.end()
			continue
		}
		curE = max(curE, c.end())
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.Dur - covered
}

// unexplainedFrac is the share of per-op CPU that the summed per-op
// layer self-times leave unaccounted for: (cpu - Σ layers) / cpu. It is
// negative when the layer spans include waiting that cost no CPU.
func unexplainedFrac(cpuNsPerOp float64, layerNsPerOp []float64) float64 {
	var sum float64
	for _, l := range layerNsPerOp {
		sum += l
	}
	return ratio(cpuNsPerOp-sum, cpuNsPerOp)
}
