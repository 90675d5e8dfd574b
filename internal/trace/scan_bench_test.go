package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// benchTraceText renders a realistic mixed trace of n actions.
func benchTraceText(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for i := 0; i < n; i++ {
		var a Action
		switch rng.Intn(5) {
		case 0, 1:
			a = Action{Proc: rng.Intn(64), Type: Compute, Peer: -1, Volume: float64(rng.Intn(1e7)) + 0.25}
		case 2:
			a = Action{Proc: rng.Intn(64), Type: Send, Peer: rng.Intn(64), Volume: float64(rng.Intn(1e6))}
		case 3:
			a = Action{Proc: rng.Intn(64), Type: Recv, Peer: rng.Intn(64)}
		default:
			a = Action{Proc: rng.Intn(64), Type: AllReduce, Peer: -1, Volume: 8192, Volume2: 1.5e6}
		}
		if err := tw.Write(a); err != nil {
			panic(err)
		}
	}
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkScanBytes measures streaming a textual trace through the Scanner,
// the per-action cost every file-based replay pays.
func BenchmarkScanBytes(b *testing.B) {
	data := benchTraceText(50_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 50_000 {
			b.Fatalf("scanned %d actions", n)
		}
	}
}

// BenchmarkParseLine measures single-line parsing of the common action
// shapes through the string-based entry point.
func BenchmarkParseLine(b *testing.B) {
	lines := []string{
		"p3 compute 1.52e+07",
		"p1 send p0 163840",
		"p0 recv p1",
		"p5 allReduce 8192 1.5e+06",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, ln := range lines {
			if _, ok, err := ParseLine(ln); err != nil || !ok {
				b.Fatal(err)
			}
		}
	}
	_ = strings.TrimSpace
}

// BenchmarkBinaryCursor measures decoding an in-memory image record by
// record, the per-action cost a replay pays on every recorded rank.
func BenchmarkBinaryCursor(b *testing.B) {
	img, err := EncodeText(bytes.NewReader(benchTraceText(50_000)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewBinaryCursor(img)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := c.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 50_000 {
			b.Fatalf("decoded %d actions", n)
		}
	}
}
