package replay

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
)

// TestAppendSecondsMatchesFmt pins the integer %.9f routine against fmt on
// the cases where an approximate formatter would slip: signed zeros and
// tiny negatives, values whose nanosecond count is an exact binary half
// (round half to even), carries into the integer part, subnormals, both
// sides of the 9e9 fallback boundary, and the non-finite values.
func TestAppendSecondsMatchesFmt(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-9, -1e-9, 1.5e-9,
		-1e-12, -4.9e-10, -5e-10, -5.000000001e-10, 4.9999999e-10, 5e-10,
		1.0 / 1024, 3.0 / 1024, -1.0 / 1024, 1.0 / 512, 5.0 / 2048, 1023.0 / 1024,
		0.0000000005, 0.0000000015, 0.0000000025, 2.5e-9,
		9.9999999995, 9.9999999994, 9.9999999996, 0.9999999995, 99999.9999999995,
		123.456789012345, 3.141592653589793, 1e-300, -1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		9e9, -9e9, math.Nextafter(9e9, 0), math.Nextafter(-9e9, 0),
		math.Nextafter(9e9, math.Inf(1)), 1e15, 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, v := range cases {
		want := fmt.Sprintf("%.9f", v)
		if got := string(appendSeconds(nil, v)); got != want {
			t.Errorf("appendSeconds(%v [%#016x]) = %q, fmt gives %q", v, math.Float64bits(v), got, want)
		}
	}
}

// timedLines formats one compute and one transfer record through a fresh
// writer.
func timedLines(t *testing.T, a, b string, vol, start, end float64) string {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	tw.Compute(a, b, vol, start, end)
	tw.Comm(a, b, vol, start, end)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzTimedTraceLine holds the writer to the fmt layout it replaced, for
// arbitrary names and float64 bit patterns in every field.
func FuzzTimedTraceLine(f *testing.F) {
	f.Add("p0", "host-0", math.Float64bits(1e6), math.Float64bits(0.25), math.Float64bits(1.0/1024))
	f.Add("p3", "p12", math.Float64bits(4096), math.Float64bits(9.9999999995), math.Float64bits(-1e-12))
	f.Add("", " ", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), uint64(1))
	f.Fuzz(func(t *testing.T, a, b string, volBits, startBits, endBits uint64) {
		vol := math.Float64frombits(volBits)
		start := math.Float64frombits(startBits)
		end := math.Float64frombits(endBits)
		want := fmt.Sprintf("%.9f %s compute %g start=%.9f host=%s\n", end, a, vol, start, b) +
			fmt.Sprintf("%.9f %s send %s %g start=%.9f\n", end, a, b, vol, start)
		if got := timedLines(t, a, b, vol, start, end); got != want {
			t.Fatalf("writer output\n%q\nfmt layout\n%q", got, want)
		}
	})
}

// BenchmarkTimedTraceWriter measures the record path of the timed-trace
// writer: one op formats 512 alternating compute and transfer records into
// io.Discard. The line buffer is reused across records, so the reported
// allocs/op must stay 0, and the built-in guard fails the benchmark outright
// if formatting starts allocating (BENCH_baseline.json pins the 0 in CI).
func BenchmarkTimedTraceWriter(b *testing.B) {
	const ranks = 32
	names := make([]string, ranks)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	tw := NewTimedTraceWriter(io.Discard)
	records := func() {
		t := 0.0
		for e := 0; e < 256; e++ {
			r := e % ranks
			tw.Compute(names[r], "host-17", 1.25e6*float64(1+e%7), t, t+0.000123457)
			tw.Comm(names[r], names[(r+1)%ranks], 65536, t+0.000123457, t+0.000456789)
			t += 0.000731
		}
	}

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	if b.N >= 100 {
		perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
		if perOp >= 1 {
			b.Fatalf("timed-trace records allocate %.3f allocs/op, want 0", perOp)
		}
	}
}
