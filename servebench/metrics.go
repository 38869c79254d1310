package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value (0 when it is a single reading)
}

// quantile interpolates linearly between order statistics (the method
// Python's statistics.quantiles(method="inclusive") and R's type 7 use).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printTable writes one line per metric: name, value, unit, samples.
func printTable(w io.Writer, ms []metric) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-8s %s\n", m.name, m.value, m.unit, n)
	}
}
