// Package smpi implements the piece-wise linear communication model that
// SimGrid dedicates to MPI implementations on compute-cluster interconnects
// (Section 5 of the paper).
//
// Instead of an affine function of message size, the communication time is
// piece-wise linear: a message under ~1 KiB fits within an IP frame and
// achieves a higher data transfer rate, and MPI implementations switch from
// buffered (eager) to synchronous mode above a protocol-dependent size. The
// model is instantiated with 3 segments, i.e. 8 parameters: two segment
// boundaries plus one latency and one bandwidth correction factor per
// segment.
package smpi

import (
	"fmt"
	"math"
	"sort"
)

// EagerThreshold is the message size (bytes) up to which an MPI send is
// buffered (the eager protocol: the sender does not wait for the receiver);
// larger sends are synchronous (rendezvous). It is the 64 KiB boundary of
// Default's middle segment, shared by the replay handlers and both MPI
// engines.
const EagerThreshold = 64 * 1024

// Segment is one linear piece of the model, applying to message sizes
// strictly below MaxBytes (the last segment uses +Inf).
type Segment struct {
	MaxBytes  float64 // exclusive upper bound of the segment, +Inf for last
	LatFactor float64 // multiplies the route latency
	BwFactor  float64 // multiplies the nominal bandwidth
}

// Model is a piece-wise linear correction model over message sizes.
// Segments must be sorted by MaxBytes; use New to validate.
type Model struct {
	segments []Segment
}

// New builds a model from segments, sorting them by boundary and validating
// that exactly one unbounded segment terminates the model and that all
// factors are positive.
func New(segments []Segment) (*Model, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("smpi: model needs at least one segment")
	}
	segs := append([]Segment(nil), segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].MaxBytes < segs[j].MaxBytes })
	if !math.IsInf(segs[len(segs)-1].MaxBytes, 1) {
		return nil, fmt.Errorf("smpi: last segment must be unbounded (MaxBytes=+Inf)")
	}
	for i, s := range segs {
		if s.LatFactor <= 0 || s.BwFactor <= 0 {
			return nil, fmt.Errorf("smpi: segment %d has non-positive factors (%g, %g)",
				i, s.LatFactor, s.BwFactor)
		}
		if i > 0 && segs[i-1].MaxBytes == s.MaxBytes {
			return nil, fmt.Errorf("smpi: duplicate segment boundary %g", s.MaxBytes)
		}
	}
	return &Model{segments: segs}, nil
}

// MustNew is New that panics on error, for static model definitions.
func MustNew(segments []Segment) *Model {
	m, err := New(segments)
	if err != nil {
		panic(err)
	}
	return m
}

// Default returns the 3-segment model the paper describes: small messages
// (< 1 KiB) fit an IP frame and see better latency; medium messages
// (< 64 KiB) use the eager protocol; large messages switch to synchronous
// mode with near-nominal bandwidth. Factors are representative of the
// best-fit values SimGrid ships for TCP/GigaEthernet clusters.
func Default() *Model {
	return MustNew([]Segment{
		{MaxBytes: 1024, LatFactor: 1.0, BwFactor: 0.60},
		{MaxBytes: 64 * 1024, LatFactor: 1.9, BwFactor: 0.88},
		{MaxBytes: math.Inf(1), LatFactor: 2.2, BwFactor: 0.94},
	})
}

// Identity returns a single-segment model with factors of 1 (no correction),
// used by the ablation benchmarks comparing against a plain affine model.
func Identity() *Model {
	return MustNew([]Segment{{MaxBytes: math.Inf(1), LatFactor: 1, BwFactor: 1}})
}

// Segments returns a copy of the model's segments in boundary order.
func (m *Model) Segments() []Segment {
	return append([]Segment(nil), m.segments...)
}

// Factors returns the latency and bandwidth multipliers for a message of the
// given size.
func (m *Model) Factors(bytes float64) (latFactor, bwFactor float64) {
	for _, s := range m.segments {
		if bytes < s.MaxBytes {
			return s.LatFactor, s.BwFactor
		}
	}
	last := m.segments[len(m.segments)-1]
	return last.LatFactor, last.BwFactor
}

// RateModel adapts the model to the simulation kernel's RateModel signature.
func (m *Model) RateModel() func(bytes float64) (float64, float64) {
	return m.Factors
}

// PredictTime returns the modelled transfer time of a message over a route
// with the given base latency (s) and nominal bandwidth (B/s).
func (m *Model) PredictTime(bytes, latency, bandwidth float64) float64 {
	lf, bf := m.Factors(bytes)
	return lf*latency + bytes/(bf*bandwidth)
}

// Sample is one ping-pong measurement: one-way time for a message size.
type Sample struct {
	Bytes float64
	Time  float64
}

// Fit instantiates the correction factors from measured one-way transfer
// times, the counterpart of the Python best-fit script shipped with SimGrid
// (Section 5). For each segment delimited by boundaries, it performs an
// ordinary least-squares fit of time = a + b*size and converts the affine
// coefficients into factors relative to the base latency and bandwidth:
// latFactor = a/latency, bwFactor = 1/(b*bandwidth).
func Fit(samples []Sample, boundaries []float64, latency, bandwidth float64) (*Model, error) {
	if latency <= 0 || bandwidth <= 0 {
		return nil, fmt.Errorf("smpi: base latency and bandwidth must be positive")
	}
	bounds := append(append([]float64(nil), boundaries...), math.Inf(1))
	sort.Float64s(bounds)
	segs := make([]Segment, 0, len(bounds))
	lo := 0.0
	for _, hi := range bounds {
		var xs, ys []float64
		for _, s := range samples {
			if s.Bytes >= lo && s.Bytes < hi {
				xs = append(xs, s.Bytes)
				ys = append(ys, s.Time)
			}
		}
		if len(xs) < 2 {
			return nil, fmt.Errorf("smpi: segment [%g,%g) has %d sample(s), need >= 2", lo, hi, len(xs))
		}
		a, b := leastSquares(xs, ys)
		if b <= 0 {
			// Degenerate fit (non-increasing time with size); clamp to the
			// nominal bandwidth so the model stays physical.
			b = 1 / bandwidth
		}
		if a <= 0 {
			a = latency
		}
		segs = append(segs, Segment{
			MaxBytes:  hi,
			LatFactor: a / latency,
			BwFactor:  1 / (b * bandwidth),
		})
		lo = hi
	}
	return New(segs)
}

// leastSquares returns the intercept a and slope b of the OLS fit y = a+bx.
func leastSquares(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return ys[0], 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}
