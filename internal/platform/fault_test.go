package platform

import (
	"math"
	"testing"

	"tireplay/internal/simx"
)

func TestParseFaultSpecNone(t *testing.T) {
	for _, in := range []string{"", "none", "NONE", "  none  "} {
		s, err := ParseFaultSpec(in)
		if err != nil || s != nil {
			t.Fatalf("ParseFaultSpec(%q) = %v, %v, want nil, nil", in, s, err)
		}
	}
	if (*FaultSpec)(nil).String() != "none" {
		t.Fatal("nil spec must render as none")
	}
}

func TestParseFaultSpecClauses(t *testing.T) {
	s, err := ParseFaultSpec("host:3@12.5,host:c-5.me@60,hosts:25%@60,link:0-3@5,link:a>b-c@5,bw:0.5@10-20,cpu:0.25@30-45,mtbf:3600,seed:7")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.HostFails) != 2 || s.HostFails[0].Index != 3 || s.HostFails[0].At != 12.5 {
		t.Fatalf("host fails = %+v", s.HostFails)
	}
	if s.HostFails[1].Name != "c-5.me" || s.HostFails[1].Index != -1 {
		t.Fatalf("named host fail = %+v", s.HostFails[1])
	}
	if len(s.PctFails) != 1 || s.PctFails[0].Pct != 25 {
		t.Fatalf("pct fails = %+v", s.PctFails)
	}
	if len(s.LinkFails) != 2 || s.LinkFails[0].SrcIndex != 0 || s.LinkFails[0].DstIndex != 3 {
		t.Fatalf("link fails = %+v", s.LinkFails)
	}
	if s.LinkFails[1].Src != "a" || s.LinkFails[1].Dst != "b-c" {
		t.Fatalf("named link fail = %+v (names with '-' need the '>' form)", s.LinkFails[1])
	}
	if len(s.Degrades) != 2 || s.Degrades[0].Kind != "bw" || s.Degrades[1].Factor != 0.25 {
		t.Fatalf("degrades = %+v", s.Degrades)
	}
	if s.MTBF != 3600 || s.Seed != 7 {
		t.Fatalf("mtbf/seed = %g/%d", s.MTBF, s.Seed)
	}
}

func TestParseFaultSpecRoundTrip(t *testing.T) {
	in := "host:3@12.5,hosts:25%@60,link:0-3@5,bw:0.5@10-20,mtbf:3600,seed:7"
	s, err := ParseFaultSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != in {
		t.Fatalf("String() = %q, want canonical %q", got, in)
	}
	again, err := ParseFaultSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != s.String() {
		t.Fatalf("round-trip drift: %q -> %q", s.String(), again.String())
	}
	txt, err := s.MarshalText()
	if err != nil || string(txt) != in {
		t.Fatalf("MarshalText = %q, %v", txt, err)
	}
	var u FaultSpec
	if err := u.UnmarshalText(txt); err != nil || u.String() != in {
		t.Fatalf("UnmarshalText -> %q, %v", u.String(), err)
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, in := range []string{
		"host:3",        // no time
		"host:@5",       // empty selector
		"host:3@-1",     // negative time
		"host:3@NaN",    // non-finite time
		"hosts:0%@5",    // zero percentage
		"hosts:120%@5",  // > 100
		"hosts:25@5",    // missing %
		"link:a-b@5",    // '-' form needs indices
		"bw:0@10-20",    // zero factor
		"bw:0.5@20-10",  // inverted window
		"bw:0.5@10",     // not a window
		"cpu:0.5@10-10", // empty window
		"mtbf:0",        // non-positive
		"mtbf:abc",      // not a number
		"seed:x",        // bad seed
		"boom:1@2",      // unknown key
		"host",          // no colon
		"seed:3",        // no effect: seed alone
		// Windows of one kind that overlap or touch.
		"bw:0.5@1-3,bw:0.5@2-4",    // crossing
		"cpu:0.5@1-4,cpu:0.25@2-3", // nested
		"bw:0.5@1-2,bw:0.5@2-3",    // touching
		"bw:0.5@2-3,bw:0.5@1-2",    // touching, the other order
	} {
		if s, err := ParseFaultSpec(in); err == nil {
			t.Errorf("ParseFaultSpec(%q) = %+v, want error", in, s)
		}
	}
}

func TestPctCountAndPickDeterminism(t *testing.T) {
	if pctCount(16, 25) != 4 {
		t.Fatalf("pctCount(16, 25%%) = %d, want 4", pctCount(16, 25))
	}
	if pctCount(100, 0.1) != 1 {
		t.Fatal("a positive percentage must kill at least one host")
	}
	if pctCount(4, 100) != 4 {
		t.Fatal("100% kills everything")
	}
	a := pctPick(32, 8, &splitmix64{state: 42})
	b := pctPick(32, 8, &splitmix64{state: 42})
	c := pctPick(32, 8, &splitmix64{state: 43})
	if len(a) != 8 {
		t.Fatalf("picked %d, want 8", len(a))
	}
	seen := map[int]bool{}
	for i, v := range a {
		if v != b[i] {
			t.Fatal("same seed must pick the same hosts")
		}
		if v < 0 || v >= 32 || seen[v] {
			t.Fatalf("pick %d out of range or duplicated", v)
		}
		seen[v] = true
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds picked identical hosts (suspicious)")
	}
}

func TestArrivalsMergesExplicitAndExponential(t *testing.T) {
	s, err := ParseFaultSpec("host:0@50,host:1@10,mtbf:30,seed:3")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Arrivals()
	prev := 0.0
	explicit := 0
	for i := 0; i < 50; i++ {
		t0 := a.Next()
		if math.IsInf(t0, 1) {
			t.Fatal("an MTBF stream never exhausts")
		}
		if t0 < prev {
			t.Fatalf("arrivals out of order: %g after %g", t0, prev)
		}
		if t0 == 10 || t0 == 50 {
			explicit++
		}
		prev = t0
	}
	if explicit != 2 {
		t.Fatalf("saw %d explicit instants in the merged stream, want 2", explicit)
	}

	// Finite stream: explicit only, then +Inf forever.
	s2, err := ParseFaultSpec("host:0@5,link:0-1@3")
	if err != nil {
		t.Fatal(err)
	}
	a2 := s2.Arrivals()
	if got := a2.Next(); got != 3 {
		t.Fatalf("first arrival %g, want 3", got)
	}
	if got := a2.Next(); got != 5 {
		t.Fatalf("second arrival %g, want 5", got)
	}
	if !math.IsInf(a2.Next(), 1) || !math.IsInf(a2.Next(), 1) {
		t.Fatal("exhausted stream must return +Inf")
	}
	if !math.IsInf((*FaultSpec)(nil).Arrivals().Next(), 1) {
		t.Fatal("nil spec has no arrivals")
	}
}

func TestInjectFailStopsIntoKernel(t *testing.T) {
	k := simx.New()
	names := []string{"h0", "h1", "h2", "h3"}
	l := k.AddLink("l", 1e8, 1e-4)
	for _, n := range names {
		k.AddHost(n, 1e9, 1)
	}
	for _, a := range names {
		for _, b := range names {
			if a != b {
				k.AddRoute(a, b, []*simx.Link{l})
			}
		}
	}
	s, err := ParseFaultSpec("host:1@2,hosts:50%@4,cpu:0.5@1-3")
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, len(names))
	for i, n := range names {
		i := i
		k.Spawn(n, k.Host(n), func(p *simx.Proc) {
			defer func() { _ = simx.FailureOf(recover()) }()
			p.Execute(10e9) // 10 s nominal
			done[i] = true
		})
	}
	if err := s.Inject(k, names); err != nil {
		t.Fatal(err)
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !k.Host("h1").Off() {
		t.Fatal("host:1 clause did not fail h1")
	}
	off := 0
	for _, n := range names {
		if k.Host(n).Off() {
			off++
		}
	}
	// host:1 plus 50% of 4 = 2 picks (which may include h1 again).
	if off < 2 || off > 3 {
		t.Fatalf("%d hosts off, want 2 or 3", off)
	}
	survivors := 0
	for _, d := range done {
		if d {
			survivors++
		}
	}
	if survivors != len(names)-off {
		t.Fatalf("%d survivors with %d hosts off", survivors, off)
	}
	// Survivors: 1 s full + 2 s half + rest full = 10 Gflop at t=11.
	if math.Abs(end-11.0) > 1e-9 {
		t.Fatalf("makespan = %g, want 11 (cpu window adds 1 s)", end)
	}
}

func TestInjectErrors(t *testing.T) {
	k := simx.New()
	k.AddHost("h0", 1e9, 1)
	if err := (&FaultSpec{HostFails: []HostFault{{Index: 5, At: 1}}}).InjectFailStops(k, []string{"h0"}); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if err := (&FaultSpec{HostFails: []HostFault{{Index: -1, Name: "nope", At: 1}}}).InjectFailStops(k, []string{"h0"}); err == nil {
		t.Fatal("unknown host name must error")
	}
	if err := (&FaultSpec{HostFails: []HostFault{{Index: 0, At: 1}}}).InjectFailStops(k, []string{"ghost"}); err == nil {
		t.Fatal("deployment host missing from platform must error")
	}
	if err := (*FaultSpec)(nil).InjectFailStops(k, nil); err != nil {
		t.Fatal("nil spec injects nothing, successfully")
	}
}

func TestMTBFInjectionKillsHostsOverTime(t *testing.T) {
	run := func() (float64, int) {
		k := simx.New()
		names := []string{"h0", "h1", "h2", "h3"}
		for _, n := range names {
			k.AddHost(n, 1e9, 1)
		}
		for _, n := range names {
			k.Spawn(n, k.Host(n), func(p *simx.Proc) {
				defer func() { _ = simx.FailureOf(recover()) }()
				p.Execute(100e9) // 100 s: long enough for mtbf:10 to bite
			})
		}
		s, err := ParseFaultSpec("mtbf:10,seed:9")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(k, names); err != nil {
			t.Fatal(err)
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, n := range names {
			if k.Host(n).Off() {
				off++
			}
		}
		return end, off
	}
	e1, o1 := run()
	e2, o2 := run()
	if e1 != e2 || o1 != o2 {
		t.Fatalf("mtbf injection not deterministic: (%g, %d) vs (%g, %d)", e1, o1, e2, o2)
	}
	if o1 == 0 {
		t.Fatal("mtbf:10 over a 100 s run killed nothing")
	}
	if e1 > 100 {
		t.Fatalf("makespan %g exceeds the fault-free 100 s (timers must not extend it)", e1)
	}
}

func TestFailStopsPredicate(t *testing.T) {
	cases := []struct {
		spec string
		want bool
	}{
		{"bw:0.5@1-2", false},
		{"cpu:0.5@1-2", false},
		// Disjoint windows of one kind, in both orders, and overlapping
		// windows of two kinds.
		{"bw:0.5@1-2,bw:0.5@2.5-3", false},
		{"bw:0.5@2.5-3,bw:0.5@1-2", false},
		{"bw:0.5@1-3,cpu:0.5@2-4", false},
		{"host:0@1", true},
		{"hosts:10%@1", true},
		{"link:0-1@1", true},
		{"mtbf:100", true},
	}
	for _, c := range cases {
		s, err := ParseFaultSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if s.FailStops() != c.want {
			t.Errorf("FailStops(%q) = %v, want %v", c.spec, s.FailStops(), c.want)
		}
	}
	if (*FaultSpec)(nil).FailStops() {
		t.Fatal("nil spec has no fail-stops")
	}
}
