package synth

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

// genAll materializes every rank of a generator.
func genAll(t *testing.T, g *Gen) [][]trace.Action {
	t.Helper()
	perRank := make([][]trace.Action, g.World())
	for r := range perRank {
		acts, err := g.Actions(r)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		perRank[r] = acts
	}
	return perRank
}

// TestGenVerifiesAtArbitraryWorlds is the core scaling promise: a model
// fitted at one world size emits semantically valid traces — matched
// send/recv pairs, satisfied waits, rank-consistent collectives — at
// every world in 2..17, including primes and sizes far from the
// recording.
func TestGenVerifiesAtArbitraryWorlds(t *testing.T) {
	for _, tc := range []struct {
		app, class string
		procs      int
	}{
		{"lu", "S", 16},
		{"cg", "S", 16},
		{"ep", "S", 8},
	} {
		m, _ := fixture(t, tc.app, tc.class, tc.procs)
		for world := 2; world <= 17; world++ {
			g, err := NewGen(m, DefaultSpec(world))
			if err != nil {
				t.Fatalf("%s at world %d: %v", m.App, world, err)
			}
			perRank := genAll(t, g)
			if errs := trace.Verify(perRank); len(errs) > 0 {
				t.Errorf("%s at world %d: %d verify errors, first: rank %d action %d: %s",
					m.App, world, len(errs), errs[0].Proc, errs[0].Index, errs[0].Problem)
			}
		}
	}
}

// TestGenCodecRoundTrip writes synthetic traces through both codecs and
// reads them back: the on-disk representation must reproduce the
// generated streams exactly, text and binary agreeing with each other.
func TestGenCodecRoundTrip(t *testing.T) {
	m, _ := fixture(t, "lu", "S", 16)
	for _, world := range []int{5, 12} {
		g, err := NewGen(m, Spec{World: world, Jitter: 0.1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		want := genAll(t, g)
		for _, binary := range []bool{false, true} {
			dir := t.TempDir()
			paths, err := g.WriteDir(dir, binary)
			if err != nil {
				t.Fatalf("world %d binary=%v: %v", world, binary, err)
			}
			if len(paths) != world {
				t.Fatalf("world %d: wrote %d files, want %d", world, len(paths), world)
			}
			wantName := trace.ProcessFileName(0)
			if binary {
				wantName = trace.BinaryFileName(0)
			}
			if filepath.Base(paths[0]) != wantName {
				t.Errorf("world %d binary=%v: rank-0 file named %s, want %s",
					world, binary, filepath.Base(paths[0]), wantName)
			}
			for r, p := range paths {
				got, err := trace.ReadFile(p)
				if err != nil {
					t.Fatalf("reading back %s: %v", p, err)
				}
				if err := sameActions(want[r], got); err != nil {
					t.Fatalf("world %d binary=%v rank %d: codec round trip diverged: %v",
						world, binary, r, err)
				}
			}
		}
	}
}

// TestGenDeterministic: same model + same spec = byte-identical output,
// independent of call order; a different seed with jitter on must
// actually change the stream.
func TestGenDeterministic(t *testing.T) {
	m, _ := fixture(t, "cg", "S", 16)
	sp := Spec{World: 32, Jitter: 0.2, Seed: 7}
	g1, err := NewGen(m, sp)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGen(m, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Interrogate g2 out of order and twice: RankGen state must not leak.
	for _, r := range []int{31, 0, 17, 17} {
		a2, err := g2.Actions(r)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := g1.Actions(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameActions(a1, a2); err != nil {
			t.Fatalf("rank %d not deterministic: %v", r, err)
		}
	}
	g3, err := NewGen(m, Spec{World: 32, Jitter: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := g1.Actions(5)
	a3, err := g3.Actions(5)
	if err != nil {
		t.Fatal(err)
	}
	if sameActions(a1, a3) == nil {
		t.Fatal("different seeds with jitter produced identical streams")
	}
}

// TestGenJitterBounded: jitter perturbs compute volumes within the
// advertised [1-j, 1+j) envelope and touches nothing else.
func TestGenJitterBounded(t *testing.T) {
	m, _ := fixture(t, "lu", "S", 8)
	base, err := NewGen(m, DefaultSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	jit, err := NewGen(m, Spec{World: 8, Jitter: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		b, err1 := base.Actions(r)
		j, err2 := jit.Actions(r)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(b) != len(j) {
			t.Fatalf("rank %d: jitter changed stream length %d -> %d", r, len(b), len(j))
		}
		for i := range b {
			if b[i].Type != j[i].Type || b[i].Peer != j[i].Peer {
				t.Fatalf("rank %d action %d: jitter changed structure", r, i)
			}
			if b[i].Type == trace.Compute {
				ratio := j[i].Volume / b[i].Volume
				if ratio < 0.7 || ratio >= 1.3 {
					t.Errorf("rank %d action %d: compute jitter ratio %g outside [0.7,1.3)", r, i, ratio)
				}
			} else if b[i].Volume != j[i].Volume || b[i].Volume2 != j[i].Volume2 {
				t.Errorf("rank %d action %d (%s): jitter leaked into non-compute volume", r, i, b[i].Type)
			}
		}
	}
}

// TestGenScalingLaws pins the knobs: weak scaling keeps per-rank volumes
// fixed; strong scaling divides compute by rho and p2p bytes by
// sqrt(rho); the reps exponent stretches the iteration count.
func TestGenScalingLaws(t *testing.T) {
	m, _ := fixture(t, "lu", "S", 16)
	sums := func(sp Spec) (comp, bytes float64, actions int) {
		g, err := NewGen(m, sp)
		if err != nil {
			t.Fatal(err)
		}
		a, err := g.Actions(g.World() / 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range a {
			switch x.Type {
			case trace.Compute:
				comp += x.Volume
			case trace.Send, trace.Isend:
				bytes += x.Volume
			}
		}
		return comp, bytes, len(a)
	}
	// Weak: an interior rank at 64 must carry exactly the volumes of an
	// interior rank at the recorded 16 (rank-class equivalent streams).
	c16, b16, _ := sums(Spec{World: 16, GridW: 4, GridH: 4})
	c64, b64, _ := sums(Spec{World: 64, GridW: 8, GridH: 8})
	if c64 != c16 || b64 != b16 {
		t.Errorf("weak scaling drifted: compute %g -> %g, bytes %g -> %g", c16, c64, b16, b64)
	}
	// Strong at rho=4: compute shrinks 4x, halo bytes 2x.
	cs, bs, _ := sums(Spec{World: 64, GridW: 8, GridH: 8, Law: StrongLaw})
	if !approxEq(cs, c16/4) {
		t.Errorf("strong scaling: interior compute %g, want %g", cs, c16/4)
	}
	if !approxEq(bs, b16/2) {
		t.Errorf("strong scaling: interior halo bytes %g, want %g", bs, b16/2)
	}
	// Reps exponent 1 at rho=4 quadruples the iteration count, so the
	// stream grows ~4x.
	_, _, n1 := sums(Spec{World: 16, GridW: 4, GridH: 4})
	_, _, n4 := sums(Spec{World: 64, GridW: 8, GridH: 8, Law: Law{Reps: 1}})
	if n4 < 3*n1 || n4 > 5*n1 {
		t.Errorf("reps law: stream grew %d -> %d, want ~4x", n1, n4)
	}
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestGenGridChoice: the derived grid preserves the recorded aspect
// ratio, honours explicit overrides, and keeps XOR widths power-of-two.
func TestGenGridChoice(t *testing.T) {
	lu, _ := fixture(t, "lu", "S", 16) // recorded 4x4
	for _, tc := range []struct {
		world int
		w, h  int
	}{
		{64, 8, 8},
		{36, 6, 6},
		{8, 4, 2},
		{7, 7, 1}, // prime: no better divisor than a row
	} {
		g, err := NewGen(lu, DefaultSpec(tc.world))
		if err != nil {
			t.Fatalf("world %d: %v", tc.world, err)
		}
		if w, h := g.Grid(); w != tc.w || h != tc.h {
			t.Errorf("lu at world %d: grid %dx%d, want %dx%d", tc.world, w, h, tc.w, tc.h)
		}
	}
	cg, _ := fixture(t, "cg", "S", 16) // xor dirs: width must stay 2^k
	g, err := NewGen(cg, DefaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Grid(); w&(w-1) != 0 {
		t.Errorf("cg at world 24: width %d not a power of two despite XOR dirs", w)
	}
	if _, err := NewGen(lu, Spec{World: 12, GridW: 3, GridH: 4}); err != nil {
		t.Errorf("explicit grid override rejected: %v", err)
	}
	g, err = NewGen(lu, Spec{World: 12, GridW: 3, GridH: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w, h := g.Grid(); w != 3 || h != 4 {
		t.Errorf("override ignored: got %dx%d", w, h)
	}
}

// chooseGridScan is chooseGrid's former search, kept as the reference its
// divisor enumeration must agree with: every width from 1 to the world.
func chooseGridScan(m *Model, spec Spec) (int, int) {
	hasXor := false
	for _, d := range m.Dirs {
		if d.Kind == DirXor {
			hasXor = true
		}
	}
	want := math.Log(float64(m.GridW) / float64(m.GridH))
	bestW, bestDev := 0, math.Inf(1)
	pick := func(w int) {
		dev := math.Abs(math.Log(float64(w)/float64(spec.World/w)) - want)
		if dev < bestDev-1e-12 || (dev <= bestDev+1e-12 && w > bestW) {
			bestW, bestDev = w, dev
		}
	}
	for w := 1; w <= spec.World; w++ {
		if spec.World%w != 0 {
			continue
		}
		if hasXor && w&(w-1) != 0 {
			continue
		}
		pick(w)
	}
	if bestW == 0 {
		for w := 1; w <= spec.World; w++ {
			if spec.World%w == 0 {
				pick(w)
			}
		}
	}
	return bestW, spec.World / bestW
}

// TestChooseGridMatchesScan: enumerating divisors up to the square root
// picks the grid the full scan picked, on LU and on CG (XOR directions), at
// every world up to 5000 and at large, prime and highly composite ones.
func TestChooseGridMatchesScan(t *testing.T) {
	lu, _ := fixture(t, "lu", "S", 16)
	cg, _ := fixture(t, "cg", "S", 16)
	worlds := []int{1 << 20, 10_000_000, 9_999_991, 9_699_690}
	for w := 1; w <= 5000; w++ {
		worlds = append(worlds, w)
	}
	for _, m := range []*Model{lu, cg} {
		for _, world := range worlds {
			spec := Spec{World: world}
			gw, gh, err := chooseGrid(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			if ww, wh := chooseGridScan(m, spec); gw != ww || gh != wh {
				t.Fatalf("%s at world %d: grid %dx%d, the scan picks %dx%d", m.App, world, gw, gh, ww, wh)
			}
		}
	}
}

// TestGenScriptIndexMatchesScript: the generator indexes the top-level
// script arithmetically; position for position it must be the script the
// model expands, at every small repetition count.
func TestGenScriptIndexMatchesScript(t *testing.T) {
	cg, _ := fixture(t, "cg", "S", 16) // prologue, body and tail all non-empty
	for reps := 0; reps <= 4; reps++ {
		m := *cg
		m.Reps = reps
		g, err := NewGen(&m, Spec{World: m.World})
		if err != nil {
			t.Fatal(err)
		}
		script := m.Script()
		if g.scriptLen != len(script) {
			t.Fatalf("reps %d: script length %d, want %d", reps, g.scriptLen, len(script))
		}
		for i, want := range script {
			if got := g.phaseAt(i); got != want {
				t.Fatalf("reps %d position %d: phase %d, want %d", reps, i, got, want)
			}
		}
	}
}

// TestGenRepsLawBounded: a reps law that stretches the script body to
// millions of phases costs the generator no memory, one that stretches it
// to hundreds of millions is refused by the action bound as cheaply, and a
// count past an int is an error instead of one silent repetition.
func TestGenRepsLawBounded(t *testing.T) {
	cg, _ := fixture(t, "cg", "S", 16)
	for _, tc := range []struct {
		world int
		law   float64
		reps  int // the scaled body reps: the model's 14 times (world/16)^law
		ok    bool
	}{
		// 4.4 M phases (35 MB as an expanded script), bounded at 600 M
		// actions: admitted.
		{32, 12, 14 << 12, true},
		// 2.8·10^8 phases, bounded at 1.2·10^12 actions: refused.
		{1024, 3, 14 << 18, false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := NewGen(cg, Spec{World: tc.world, Law: Law{Reps: tc.law}})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Fatalf("NewGen allocated %d bytes for %d body reps", b, tc.reps)
		}
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "one sweep cell may replay") {
				t.Fatalf("%d body reps at world %d: error %v, want the action bound's", tc.reps, tc.world, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := len(cg.Prologue) + tc.reps*len(cg.Body) + len(cg.Tail); g.scriptLen != want {
			t.Fatalf("script of %d phases, want %d", g.scriptLen, want)
		}
	}

	// At world 16384 the models scale by 1024 = 2^10 per unit of the law:
	// LU's segment reps and CG's 14 body reps overflow at 10 and 20, and at
	// 5.72 CG's reps (about 2^61) fit while its 76-phase script does not.
	lu, _ := fixture(t, "lu", "S", 16)
	for _, tc := range []struct {
		m    *Model
		law  float64
		want string
	}{
		{lu, 10, "repetitions to"},
		{cg, 20, "repetitions to"},
		{cg, math.Inf(1), "repetitions to +Inf"},
		{cg, 5.72, "more phases than an int holds"},
	} {
		_, err := NewGen(tc.m, Spec{World: 16384, Law: Law{Reps: tc.law}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s under reps law %g: error %v, want one saying %q", tc.m.App, tc.law, err, tc.want)
		}
	}
}

// TestGenActionBound: NewGen bounds the actions of a world from the model
// alone. A reps law whose counts still fit an int can ask for about 10^14
// segment repetitions (LU S fitted on 16 ranks, at world 64 under
// reps=20), which would replay for ever; NewGen refuses it. Admitted
// worlds yield no more actions than the bound, and the largest world the
// project replays (16384 strong-scaled LU ranks) stays admitted.
func TestGenActionBound(t *testing.T) {
	lu, _ := fixture(t, "lu", "S", 16)
	if _, err := NewGen(lu, Spec{World: 64, Law: Law{Reps: 20}}); err == nil ||
		!strings.Contains(err.Error(), "one sweep cell may replay") {
		t.Fatalf("reps=20 at world 64: error %v, want the action bound's", err)
	}
	for _, sp := range []Spec{
		{World: 64, Law: Law{Reps: 1}},
		{World: 64, Law: Law{Reps: 2}},
		{World: 12, Law: StrongLaw},
	} {
		g, err := NewGen(lu, sp)
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		n := 0
		for r := 0; r < sp.World; r++ {
			rg, err := g.Rank(r)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := rg.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
		}
		if bound := g.actionBound(); n > bound {
			t.Errorf("%v: %d actions, past the bound %d", sp, n, bound)
		}
	}
	g, err := NewGen(lu, Spec{World: 16384, Law: StrongLaw})
	if err != nil {
		t.Fatal(err)
	}
	if bound := g.actionBound(); bound > maxWorldActions/4 {
		t.Errorf("16384 strong-scaled LU ranks bounded at %d actions, within 4x of the %d limit", bound, maxWorldActions)
	}
}

// TestGenCommSizeFirst: every synthetic rank opens with comm_size of the
// target world, matching the recorder's convention that replay relies on.
func TestGenCommSizeFirst(t *testing.T) {
	m, _ := fixture(t, "cg", "S", 8)
	g, err := NewGen(m, DefaultSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 11; r++ {
		a, err := g.Actions(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || a[0].Type != trace.CommSize || a[0].Volume != 11 {
			t.Fatalf("rank %d does not open with comm_size 11: %+v", r, a[0])
		}
		for _, x := range a[1:] {
			if x.Type == trace.CommSize {
				t.Fatalf("rank %d has a mid-stream comm_size", r)
			}
		}
	}
}

// TestGenLargeWorldSmoke: the 16k-rank tentpole world generates and
// verifies. Kept cheap by truncating the fitted script to one body rep.
func TestGenLargeWorldSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-rank generation in -short mode")
	}
	m, _ := fixture(t, "lu", "S", 16)
	for i := range m.Phases {
		if s := m.Phases[i].Seg; s != nil && s.Reps > 1 {
			s.Reps = 1
		}
	}
	const world = 16384
	g, err := NewGen(m, Spec{World: world, Law: StrongLaw})
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, world)
	for r := 0; r < world; r++ {
		perRank[r], err = g.Actions(r)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if errs := trace.Verify(perRank); len(errs) > 0 {
		t.Fatalf("16k world: %d verify errors, first: rank %d: %s",
			len(errs), errs[0].Proc, errs[0].Problem)
	}
}

// TestGenErrors: out-of-range ranks and impossible specs fail cleanly.
func TestGenErrors(t *testing.T) {
	m, _ := fixture(t, "lu", "S", 8)
	g, err := NewGen(m, DefaultSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{-1, 4, 100} {
		if _, err := g.Actions(r); err == nil {
			t.Errorf("rank %d of a 4-world generated without error", r)
		}
	}
	if _, err := NewGen(m, Spec{World: 0}); err == nil {
		t.Error("world=0 accepted")
	}
	if _, err := NewGen(m, Spec{World: 8, GridW: 3, GridH: 2}); err == nil {
		t.Error("non-tiling grid accepted")
	}
}

func ExampleGen() {
	perRank, err := npb.RecordAll("ep", "S", 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	m, err := Fit(perRank)
	if err != nil {
		fmt.Println(err)
		return
	}
	g, err := NewGen(m, DefaultSpec(6))
	if err != nil {
		fmt.Println(err)
		return
	}
	a, _ := g.Actions(0)
	fmt.Println(len(a) > 0, a[0].Type)
	// Output: true comm_size
}
