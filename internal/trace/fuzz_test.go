package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: ParseLine never panics and never both fails and succeeds,
// whatever bytes it is fed.
func TestParseLineRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		line := string(raw)
		defer func() {
			if recover() != nil {
				t.Errorf("ParseLine(%q) panicked", line)
			}
		}()
		a, ok, err := ParseLine(line)
		if err != nil && ok {
			return false
		}
		if ok {
			// Anything accepted must be valid and re-parseable.
			if a.Validate() != nil {
				return false
			}
			b, ok2, err2 := ParseLine(a.Format())
			return ok2 && err2 == nil && a == b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: garbage with plausible prefixes is handled.
func TestParseLineHostileInputs(t *testing.T) {
	hostile := []string{
		"p0",
		"p0 ",
		"p999999999999999999999 compute 1",
		"p0 compute 1e999",
		"p0 compute -1",
		"p0 send p0",
		"p0 send p1 NaN",
		"p0 send p1 Inf",
		"p0 recv",
		"p-0 barrier",
		"p0 comm_size 1.5",
		"p0 comm_size NaN",
		"p0 comm_size Inf",
		"p0 allReduce 1",
		"p0 compute NaN",
		"p0 compute Inf",
		"p0 Irecv p1 NaN",
		"p0 reduce 1 NaN",
		"p0 gather Infinity",
		strings.Repeat("p0 ", 1000),
		"\x00\x01\x02",
		"p0 compute 1 extra trailing fields are ignored",
	}
	for _, line := range hostile {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("ParseLine(%q) panicked", line)
				}
			}()
			a, ok, err := ParseLine(line)
			if ok && err == nil {
				if verr := a.Validate(); verr != nil {
					t.Errorf("ParseLine(%q) accepted invalid action: %v", line, verr)
				}
			}
		}()
	}
}

// Property: DecodeBinary never panics on corrupted streams.
func TestDecodeBinaryRobustnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Start from a valid stream and corrupt random bytes.
	actions := make([]Action, 100)
	for i := range actions {
		actions[i] = randomAction(rng)
	}
	var valid bytes.Buffer
	if err := EncodeBinary(&valid, actions); err != nil {
		t.Fatal(err)
	}
	base := valid.Bytes()
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("DecodeBinary panicked on corrupted input (trial %d)", trial)
				}
			}()
			_, _ = DecodeBinary(bytes.NewReader(corrupted))
		}()
	}
	// Truncations as well.
	for cut := 0; cut < len(base); cut += 7 {
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("DecodeBinary panicked on truncation at %d", cut)
				}
			}()
			_, _ = DecodeBinary(bytes.NewReader(base[:cut]))
		}()
	}
}

// parseLineSeeds seed FuzzParseLine and, one per line and all together,
// FuzzEncodeText.
var parseLineSeeds = []string{
	"p0 compute 1e6",
	"p1 send p0 163840",
	"p3 recv p2",
	"p2 Irecv p1 4096",
	"p0 allReduce 1e5 2e6",
	"p7 comm_size 8",
	"p4 barrier",
	"p5 wait",
	"p0 gather 4096",
	"p2 allGather 8192",
	"p6 allToAll 512",
	"p0 scatter 1e6",
	"p3 waitAll",
	"p1 ALLGATHER 64",
	"# comment",
	"",
	"p0 compute 1e999",
	"p0 send p1 NaN",
	"p0 compute NaN",
	"p0 Irecv p1 NaN",
	"p0 comm_size Inf",
	"p0 allGather -Inf",
	"\x00\x01\x02",
}

// FuzzParseLine is the native fuzz target behind the CI fuzz-smoke step: a
// line of any bytes must parse without panicking, anything accepted must
// validate, and the textual round trip must be exact.
func FuzzParseLine(f *testing.F) {
	for _, line := range parseLineSeeds {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		a, ok, err := ParseLine(line)
		if err != nil && ok {
			t.Fatalf("ParseLine(%q) returned ok with error %v", line, err)
		}
		if !ok {
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("ParseLine(%q) accepted invalid action: %v", line, verr)
		}
		b, ok2, err2 := ParseLine(a.Format())
		// Plain struct equality suffices for the round trip: Validate
		// rejects NaN and infinite volumes at parse time, so an accepted
		// action never carries a value that breaks ==.
		if !ok2 || err2 != nil || a != b {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v (ok=%v err=%v)",
				line, a, a.Format(), b, ok2, err2)
		}
	})
}

// FuzzBinaryCursor feeds arbitrary bytes to the in-place binary decoder the
// mmap path relies on: it must never panic, never read out of bounds, and
// everything it accepts must validate.
func FuzzBinaryCursor(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	actions := make([]Action, 32)
	for i := range actions {
		actions[i] = randomAction(rng)
	}
	var valid bytes.Buffer
	if err := EncodeBinary(&valid, actions); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// One deterministic stream covering every collective action shape,
	// including the schedule-decomposed collectives and waitAll.
	var colls bytes.Buffer
	if err := EncodeBinary(&colls, []Action{
		{Proc: 0, Type: Bcast, Peer: -1, Volume: 1e6},
		{Proc: 1, Type: Gather, Peer: -1, Volume: 4096},
		{Proc: 2, Type: AllGather, Peer: -1, Volume: 8192},
		{Proc: 3, Type: AllToAll, Peer: -1, Volume: 512},
		{Proc: 4, Type: Scatter, Peer: -1, Volume: 2048},
		{Proc: 5, Type: WaitAll, Peer: -1},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(colls.Bytes())
	f.Add([]byte("TITB\x01"))
	f.Add([]byte("TITB"))
	f.Add([]byte{})
	// A hand-crafted compute record carrying a NaN volume: the writer now
	// refuses to produce one, so the cursor's rejection path can only be
	// seeded this way.
	nan := append([]byte("TITB\x01"), byte(Compute), 0x00)
	nan = binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBinaryBytes(data)
		if err != nil {
			return
		}
		for i, a := range got {
			if verr := a.Validate(); verr != nil {
				t.Fatalf("record %d decoded invalid: %v", i, verr)
			}
		}
	})
}

// FuzzEncodeText checks the text-to-image encoder against the text parser:
// for any text, EncodeText succeeds exactly when ParseAll does, fails with
// the same error text, and a cursor over its image yields exactly
// ParseAll's actions.
func FuzzEncodeText(f *testing.F) {
	for _, line := range parseLineSeeds {
		f.Add(line + "\n")
	}
	f.Add(strings.Join(parseLineSeeds[:14], "\n"))
	f.Add(strings.Join(parseLineSeeds, "\r\n"))
	f.Fuzz(func(t *testing.T, text string) {
		want, werr := ParseAll(strings.NewReader(text))
		img, err := EncodeText(strings.NewReader(text))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("EncodeText error %v, ParseAll error %v", err, werr)
		}
		if err != nil {
			return
		}
		got, err := DecodeBinaryBytes(img)
		if err != nil {
			t.Fatalf("image does not decode: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("image holds %d actions, ParseAll %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("action %d: image %+v, ParseAll %+v", i+1, got[i], want[i])
			}
		}
	})
}
