package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

// computeText renders n compute actions of rank r in the text format.
func computeText(r, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d compute %d\n", r, 1000+i)
	}
	return b.String()
}

// writeFile writes body to dir/name.
func writeFile(t testing.TB, dir, name string, body []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeTib writes n compute actions of rank r as dir's .tib file for r.
func writeTib(t testing.TB, dir string, r, n int) {
	t.Helper()
	acts, err := trace.ParseAll(strings.NewReader(computeText(r, n)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, acts); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, trace.BinaryFileName(r), buf.Bytes())
}

// serialError is the error the serial load stops at for a malformed text
// rank: ReadImage's for that rank's file.
func serialError(t *testing.T, dir string, r int) string {
	t.Helper()
	_, err := trace.ReadImage(filepath.Join(dir, trace.ProcessFileName(r)))
	if err == nil {
		t.Fatalf("rank %d is not malformed", r)
	}
	return err.Error()
}

// TestLoadDirSizedByFilesFound: a rank count far past the directory's
// ranks fails on the first missing rank without allocating a table of that
// count. The two ranks are .tib files, which are mapped, so the load
// allocates next to nothing besides its tables.
func TestLoadDirSizedByFilesFound(t *testing.T) {
	dir := t.TempDir()
	writeTib(t, dir, 0, 4)
	writeTib(t, dir, 1, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts, err := LoadDir(dir, 1<<20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "no trace for rank 2 ") {
		t.Fatalf("LoadDir(dir, 1<<20) = %v, %v; want rank 2 missing", ts, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("failed load of 2 of 1<<20 ranks allocated %d B, want under 64 KB", d)
	}
}

// TestLoadDirLowestRankError: with ranks 2 (text, its last line bad) and 4
// (.tib, bad header) malformed, rank 4 usually fails first, yet every load
// returns rank 2's error, the one the serial loop stops at.
func TestLoadDirLowestRankError(t *testing.T) {
	dir := t.TempDir()
	for r := 0; r < 8; r++ {
		switch {
		case r == 2:
			writeFile(t, dir, trace.ProcessFileName(r), []byte(computeText(r, 20000)+"p2 compute abc\n"))
		case r == 4:
			writeFile(t, dir, trace.BinaryFileName(r), []byte("not a binary trace"))
		case r%2 == 0:
			writeFile(t, dir, trace.ProcessFileName(r), []byte(computeText(r, 2000)))
		default:
			writeTib(t, dir, r, 2000)
		}
	}
	want := serialError(t, dir, 2)
	if !strings.Contains(want, "SG_process2.trace: line 20001: ") || !strings.Contains(want, "bad volume") {
		t.Fatalf("rank 2's serial error %q names the wrong place", want)
	}
	for i := 0; i < 20; i++ {
		if ts, err := LoadDir(dir, 8); err == nil || err.Error() != want {
			t.Fatalf("load %d: %v, %v; want %q", i, ts, err, want)
		}
	}
}

// TestLoadDirMalformedBeforeMissing: a malformed rank 3 beats a missing
// rank 5, as in the serial loop, which loads rank 3 before it looks for
// rank 5; without the malformed rank the missing one is reported.
func TestLoadDirMalformedBeforeMissing(t *testing.T) {
	dir := t.TempDir()
	for r := 0; r < 5; r++ {
		body := computeText(r, 100)
		if r == 3 {
			body += "p3 compute abc\n"
		}
		writeFile(t, dir, trace.ProcessFileName(r), []byte(body))
	}
	want := serialError(t, dir, 3)
	if _, err := LoadDir(dir, 8); err == nil || err.Error() != want {
		t.Fatalf("LoadDir: %v, want %q", err, want)
	}
	writeFile(t, dir, trace.ProcessFileName(3), []byte(computeText(3, 100)))
	if _, err := LoadDir(dir, 8); err == nil || !strings.Contains(err.Error(), "no trace for rank 5 ") {
		t.Fatalf("LoadDir: %v, want rank 5 missing", err)
	}
}

// TestLoadDirFailureReleases: a failed load returns only once every rank it
// started has stopped, so the goroutine count is back at its baseline.
func TestLoadDirFailureReleases(t *testing.T) {
	dir := t.TempDir()
	for r := 0; r < 6; r++ {
		if r%2 == 0 {
			writeFile(t, dir, trace.ProcessFileName(r), []byte(computeText(r, 1000)))
		} else {
			writeTib(t, dir, r, 1000)
		}
	}
	writeFile(t, dir, trace.ProcessFileName(4), []byte("p4 compute abc\n"))
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := LoadDir(dir, 6); err == nil {
			t.Fatal("malformed rank 4 must fail the load")
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the loads, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracesFromTexts: the parallel encode gives each rank EncodeText's
// image, and a set with ranks 1 and 3 malformed fails naming rank 1.
func TestTracesFromTexts(t *testing.T) {
	texts := make([]string, 6)
	for r := range texts {
		texts[r] = computeText(r, 500)
	}
	ts, err := TracesFromTexts(texts)
	if err != nil {
		t.Fatal(err)
	}
	for r, text := range texts {
		want, err := trace.EncodeText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ts.images[r], want) {
			t.Fatalf("rank %d: image differs from EncodeText's", r)
		}
	}
	texts[1] += "p1 compute abc\n"
	texts[3] += "p3 compute abc\n"
	_, want := trace.EncodeText(strings.NewReader(texts[1]))
	for i := 0; i < 20; i++ {
		if _, err := TracesFromTexts(texts); err == nil || err.Error() != "rank 1: "+want.Error() {
			t.Fatalf("encode %d: %v, want rank 1: %v", i, err, want)
		}
	}
}

// TestEachRankRaisesPanic: a panicking load is raised again on the caller's
// goroutine, where a recover (net/http's, in tiserved) can see it.
func TestEachRankRaisesPanic(t *testing.T) {
	defer func() {
		if p := recover(); p != "rank 3" {
			t.Fatalf("recovered %v, want rank 3's panic", p)
		}
	}()
	eachRank(8, func(r int) error {
		if r == 3 {
			panic("rank 3")
		}
		return nil
	})
	t.Fatal("eachRank returned")
}

// BenchmarkLoadDir loads NPB LU class W on 16 ranks written as text, the
// lu-sweep input, and reports the text bytes loaded per second.
func BenchmarkLoadDir(b *testing.B) {
	const ranks = 16
	perRank, err := npb.RecordAll("lu", "W", ranks)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var size int64
	for r, acts := range perRank {
		path := filepath.Join(dir, trace.ProcessFileName(r))
		if err := trace.WriteFile(path, acts); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := LoadDir(dir, ranks)
		if err != nil {
			b.Fatal(err)
		}
		ts.Close()
	}
}
