package trace

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// figure1Trace is the time-independent trace of Figure 1 in the paper: a
// ring of four processes each computing 1 Mflop and passing 1 MB around.
const figure1Trace = `p0 compute 1e6
p0 send p1 1e6
p0 recv p3
p1 recv p0
p1 compute 1e6
p1 send p2 1e6
p2 recv p1
p2 compute 1e6
p2 send p3 1e6
p3 recv p2
p3 compute 1e6
p3 send p0 1e6
`

func TestParseFigure1(t *testing.T) {
	actions, err := ParseAll(strings.NewReader(figure1Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 12 {
		t.Fatalf("actions = %d, want 12", len(actions))
	}
	// Spot-check a few entries.
	if a := actions[0]; a.Proc != 0 || a.Type != Compute || a.Volume != 1e6 {
		t.Errorf("actions[0] = %+v", a)
	}
	if a := actions[1]; a.Proc != 0 || a.Type != Send || a.Peer != 1 || a.Volume != 1e6 {
		t.Errorf("actions[1] = %+v", a)
	}
	if a := actions[2]; a.Proc != 0 || a.Type != Recv || a.Peer != 3 || a.HasVolume {
		t.Errorf("actions[2] = %+v", a)
	}
}

func TestFormatMatchesPaperExample(t *testing.T) {
	// The extraction example of Section 4.3: "p1 send p0 163840".
	a := Action{Proc: 1, Type: Send, Peer: 0, Volume: 163840}
	if got := a.Format(); got != "p1 send p0 163840" {
		t.Fatalf("Format = %q", got)
	}
}

func TestParseAllActionTypes(t *testing.T) {
	const doc = `p0 comm_size 4
p0 compute 1000
p0 send p1 500
p0 Isend p1 600
p0 recv p1
p0 recv p1 700
p0 Irecv p1
p0 bcast 800
p0 reduce 900 1000
p0 allReduce 1100 1200
p0 barrier
p0 wait
`
	actions, err := ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []ActionType{CommSize, Compute, Send, Isend, Recv, Recv,
		Irecv, Bcast, Reduce, AllReduce, Barrier, Wait}
	if len(actions) != len(wantTypes) {
		t.Fatalf("parsed %d actions, want %d", len(actions), len(wantTypes))
	}
	for i, w := range wantTypes {
		if actions[i].Type != w {
			t.Errorf("actions[%d].Type = %v, want %v", i, actions[i].Type, w)
		}
	}
	if !actions[5].HasVolume || actions[5].Volume != 700 {
		t.Errorf("recv with volume: %+v", actions[5])
	}
	if actions[8].Volume != 900 || actions[8].Volume2 != 1000 {
		t.Errorf("reduce volumes: %+v", actions[8])
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	const doc = "\n# a comment\n\np0 barrier\n   \n"
	actions, err := ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Type != Barrier {
		t.Fatalf("actions = %+v", actions)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	actions, err := ParseAll(strings.NewReader("p0 isend p1 10\np0 allreduce 5 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if actions[0].Type != Isend || actions[1].Type != AllReduce {
		t.Fatalf("actions = %+v", actions)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p0 send p1",       // missing volume
		"p0 send 1e6",      // missing peer... parsed as peer "1e6"
		"p0 compute",       // missing volume
		"p0 frobnicate 12", // unknown action
		"px compute 5",     // bad rank
		"p0 compute abc",   // bad volume
		"p0 reduce 5",      // missing vcomp
		"p0 comm_size 0",   // size < 1
		"p0 comm_size -3",  // negative
		"p0",               // truncated
		"p0 send p-1 5",    // negative peer
	}
	for _, line := range bad {
		if _, ok, err := ParseLine(line); err == nil && ok {
			t.Errorf("ParseLine(%q): expected error, got %+v", line, ok)
		}
	}
}

func TestWriteAllParseAllRoundTrip(t *testing.T) {
	orig, err := ParseAll(strings.NewReader(figure1Trace))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	again, err := ParseAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, again) {
		t.Fatalf("round trip mismatch:\n%v\n%v", orig, again)
	}
}

// randomAction generates a valid random action for property tests.
func randomAction(rng *rand.Rand) Action {
	typ := ActionType(rng.Intn(numActionTypes))
	a := Action{Proc: rng.Intn(1024), Type: typ, Peer: -1}
	vol := func() float64 { return math.Trunc(rng.Float64()*1e9*100) / 100 }
	switch typ {
	case Compute, Bcast, Gather, AllGather, AllToAll, Scatter:
		a.Volume = vol()
	case Send, Isend:
		a.Peer = rng.Intn(1024)
		a.Volume = vol()
	case Recv, Irecv:
		a.Peer = rng.Intn(1024)
		if rng.Intn(2) == 0 {
			a.Volume = vol()
			a.HasVolume = true
		}
	case Reduce, AllReduce:
		a.Volume = vol()
		a.Volume2 = vol()
	case CommSize:
		a.Volume = float64(1 + rng.Intn(4096))
	}
	return a
}

// Property: text encode/decode is the identity on valid actions.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		orig := make([]Action, n)
		for i := range orig {
			orig[i] = randomAction(rng)
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, orig); err != nil {
			return false
		}
		again, err := ParseAll(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(orig, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: binary encode/decode is the identity on valid actions.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		orig := make([]Action, n)
		for i := range orig {
			orig[i] = randomAction(rng)
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, orig); err != nil {
			return false
		}
		again, err := DecodeBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(orig, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	actions := make([]Action, 10000)
	for i := range actions {
		actions[i] = randomAction(rng)
	}
	var txt, bin bytes.Buffer
	if err := WriteAll(&txt, actions); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&bin, actions); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("binary (%d B) not smaller than text (%d B)", bin.Len(), txt.Len())
	}
}

func TestBinaryRejectsCorruptHeader(t *testing.T) {
	if _, err := DecodeBinary(strings.NewReader("NOPE\x01")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := DecodeBinary(strings.NewReader("TITB\xFF")); err == nil {
		t.Fatal("expected version error")
	}
}

func TestFileRoundTripTextGzipBinary(t *testing.T) {
	dir := t.TempDir()
	orig, _ := ParseAll(strings.NewReader(figure1Trace))

	txtPath := filepath.Join(dir, "t.trace")
	if err := WriteFile(txtPath, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("text file round trip mismatch")
	}

	gzPath := filepath.Join(dir, "t.trace.gz")
	if err := WriteFile(gzPath, orig); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("gzip file round trip mismatch")
	}
	// The gzip file must actually be compressed (smaller than plain text
	// would only hold for larger traces; at least check it is a gzip file).
	raw, _ := os.ReadFile(gzPath)
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("gzip file lacks gzip magic")
	}

	binPath := filepath.Join(dir, "t.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(f, orig); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = ReadFile(binPath) // auto-detected via magic
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("binary file round trip mismatch")
	}
}

func TestWriteSplit(t *testing.T) {
	dir := t.TempDir()
	orig, _ := ParseAll(strings.NewReader(figure1Trace))
	paths, err := WriteSplit(dir, 4, orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	if filepath.Base(paths[2]) != "SG_process2.trace" {
		t.Fatalf("path name = %q", paths[2])
	}
	for rank, p := range paths {
		actions, err := ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(actions) != 3 {
			t.Fatalf("rank %d has %d actions, want 3", rank, len(actions))
		}
		for _, a := range actions {
			if a.Proc != rank {
				t.Fatalf("rank %d file contains action of rank %d", rank, a.Proc)
			}
		}
	}
}

// TestRankFile pins the encoding preference (text, then gzip, then binary)
// by removing the preferred file one at a time, and checks a missing rank's
// error names every file tried.
func TestRankFile(t *testing.T) {
	dir := t.TempDir()
	names := []string{ProcessFileName(3), GzipFileName(3), BinaryFileName(3)}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range names {
		got, err := RankFile(dir, 3)
		if err != nil || got != filepath.Join(dir, want) {
			t.Fatalf("RankFile = %q, %v; want %s", got, err, want)
		}
		if err := os.Remove(got); err != nil {
			t.Fatal(err)
		}
	}
	_, err := RankFile(dir, 3)
	if err == nil {
		t.Fatal("missing rank resolved")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

// TestRankFiles: the ranks resolve in order up to the first missing one,
// whose error comes back with the paths found before it, however many
// ranks were asked for.
func TestRankFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{ProcessFileName(0), BinaryFileName(1), ProcessFileName(3)} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{filepath.Join(dir, ProcessFileName(0)), filepath.Join(dir, BinaryFileName(1))}
	got, err := RankFiles(dir, 2)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("RankFiles(dir, 2) = %q, %v; want %q", got, err, want)
	}
	got, err = RankFiles(dir, 1<<20)
	if err == nil || !strings.Contains(err.Error(), "no trace for rank 2 ") || !reflect.DeepEqual(got, want) {
		t.Fatalf("RankFiles(dir, 1<<20) = %q, %v; want %q and rank 2 missing", got, err, want)
	}
}

func TestWriteSplitRejectsForeignRank(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSplit(dir, 2, []Action{{Proc: 5, Type: Barrier, Peer: -1}}); err == nil {
		t.Fatal("expected rank range error")
	}
}

func TestStats(t *testing.T) {
	orig, _ := ParseAll(strings.NewReader(figure1Trace))
	s := Collect(orig)
	if s.Actions != 12 {
		t.Errorf("Actions = %d", s.Actions)
	}
	if s.Count(Compute) != 4 || s.Count(Send) != 4 || s.Count(Recv) != 4 {
		t.Errorf("counts: %+v", s.ByType)
	}
	if s.Flops != 4e6 || s.CommBytes != 4e6 {
		t.Errorf("volumes: flops=%g bytes=%g", s.Flops, s.CommBytes)
	}
	if s.Processes() != 4 {
		t.Errorf("Processes = %d", s.Processes())
	}
	var wantBytes int64
	for _, a := range orig {
		wantBytes += int64(len(a.Format())) + 1
	}
	if s.TextBytes != wantBytes {
		t.Errorf("TextBytes = %d, want %d", s.TextBytes, wantBytes)
	}
	if !strings.Contains(s.String(), "12 actions") {
		t.Errorf("String = %q", s.String())
	}
}

func TestScannerReportsLineNumbers(t *testing.T) {
	s := NewScanner(strings.NewReader("p0 barrier\np0 bogus 1\n"))
	if !s.Scan() {
		t.Fatal("first scan failed")
	}
	if s.Scan() {
		t.Fatal("second scan should fail")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestTypeFromName(t *testing.T) {
	for typ, name := range names {
		got, ok := TypeFromName(name)
		if !ok || got != ActionType(typ) {
			t.Errorf("TypeFromName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := TypeFromName("nope"); ok {
		t.Error("TypeFromName accepted garbage")
	}
}
