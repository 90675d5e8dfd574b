package synth

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
)

// fixture fits a model from the exact recorder output of an NPB benchmark
// and returns both. Fit already self-verifies action-for-action; the
// tests below additionally pin the externally observable properties
// (counts, byte volumes, collective cadence) against the ground truth so
// a regression in the self-check itself cannot slip through.
func fixture(t *testing.T, app, class string, procs int) (*Model, [][]trace.Action) {
	t.Helper()
	perRank, err := npb.RecordAll(app, class, procs)
	if err != nil {
		t.Fatalf("recording %s.%s at %d ranks: %v", app, class, procs, err)
	}
	m, err := Fit(perRank)
	if err != nil {
		t.Fatalf("fitting %s.%s at %d ranks: %v", app, class, procs, err)
	}
	m.App = app + "." + class
	return m, perRank
}

type traceSummary struct {
	actions   int
	byType    [trace.NumTypes]int
	sendBytes float64
	compFlops float64
	collBytes float64
}

func summarize(perRank [][]trace.Action) traceSummary {
	var s traceSummary
	for _, acts := range perRank {
		for _, a := range acts {
			s.actions++
			s.byType[a.Type]++
			switch {
			case a.Type == trace.Send || a.Type == trace.Isend:
				s.sendBytes += a.Volume
			case a.Type == trace.Compute:
				s.compFlops += a.Volume
			case isCollective(a.Type):
				s.collBytes += a.Volume
			}
		}
	}
	return s
}

// TestFitReproducesNPB is the differential pin: regenerating a fitted
// model at the recorded world size must reproduce internal/npb's
// closed-form ground truth exactly — same per-rank action streams, hence
// identical action counts, byte volumes and collective cadence. The
// tolerance is zero by design: generation mirrors the recorder's burst
// flushing, so even boundary ranks with merged compute bursts match.
func TestFitReproducesNPB(t *testing.T) {
	cases := []struct {
		app, class string
		procs      int
	}{
		{"lu", "S", 8},
		{"lu", "S", 16},
		{"lu", "A", 8},
		{"cg", "S", 8},
		{"cg", "S", 16},
		{"cg", "A", 32},
		{"ep", "S", 8},
		{"ep", "A", 16},
	}
	for _, tc := range cases {
		m, perRank := fixture(t, tc.app, tc.class, tc.procs)
		g, err := NewGen(m, DefaultSpec(tc.procs))
		if err != nil {
			t.Fatalf("%s: gen: %v", m.App, err)
		}
		for r, want := range perRank {
			got, err := g.Actions(r)
			if err != nil {
				t.Fatalf("%s rank %d: %v", m.App, r, err)
			}
			if err := sameActions(want, got); err != nil {
				t.Fatalf("%s rank %d diverges from npb ground truth: %v", m.App, r, err)
			}
		}
		ws, gs := summarize(perRank), summarizeGen(t, g)
		if ws.actions != gs.actions || ws.sendBytes != gs.sendBytes ||
			ws.compFlops != gs.compFlops || ws.collBytes != gs.collBytes || ws.byType != gs.byType {
			t.Errorf("%s: summary mismatch:\nrecorded  %+v\ngenerated %+v", m.App, ws, gs)
		}
	}
}

func summarizeGen(t *testing.T, g *Gen) traceSummary {
	t.Helper()
	perRank := make([][]trace.Action, g.World())
	for r := range perRank {
		acts, err := g.Actions(r)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		perRank[r] = acts
	}
	return summarize(perRank)
}

// TestFitGridMatchesNPB pins the inferred decomposition against npb's
// own: LU lays ranks on the power-of-two xdim x ydim grid with xdim >=
// ydim, CG uses npcols x nprows the same way.
func TestFitGridMatchesNPB(t *testing.T) {
	for _, tc := range []struct {
		app   string
		procs int
		w, h  int
	}{
		{"lu", 8, 4, 2},
		{"lu", 16, 4, 4},
		{"cg", 8, 4, 2},
		{"cg", 16, 4, 4},
		{"ep", 8, 8, 1},
	} {
		m, _ := fixture(t, tc.app, "S", tc.procs)
		if m.GridW != tc.w || m.GridH != tc.h {
			t.Errorf("%s at %d ranks: inferred grid %dx%d, npb uses %dx%d",
				tc.app, tc.procs, m.GridW, m.GridH, tc.w, tc.h)
		}
	}
}

// TestFitDirKinds pins the structural reading: LU's halo exchange is a
// 4-point stencil (offsets), CG's partial-sum exchange is a butterfly
// (XOR pairings), EP is communication-free.
func TestFitDirKinds(t *testing.T) {
	lu, _ := fixture(t, "lu", "S", 16)
	for _, d := range lu.Dirs {
		if d.Kind != DirOffset {
			t.Errorf("lu: expected stencil offsets only, got %s", d)
		}
	}
	if len(lu.Dirs) != 4 {
		t.Errorf("lu: expected 4 stencil directions, got %v", lu.Dirs)
	}
	cg, _ := fixture(t, "cg", "S", 16)
	xor := 0
	for _, d := range cg.Dirs {
		if d.Kind == DirXor {
			xor++
		}
	}
	if xor != len(cg.Dirs) || xor != 2 {
		t.Errorf("cg at 16 ranks: expected 2 XOR directions (4-wide butterfly), got %v", cg.Dirs)
	}
	ep, _ := fixture(t, "ep", "S", 8)
	if len(ep.Dirs) != 0 {
		t.Errorf("ep: expected no p2p directions, got %v", ep.Dirs)
	}
}

// TestFitCollectiveCadence pins the collective skeleton: LU class S runs
// its residual allReduce every inorm=50 iterations plus the timestep
// bcasts; CG does 2 dot products per inner iteration plus the outer
// residual; EP is exactly 3 reductions.
func TestFitCollectiveCadence(t *testing.T) {
	count := func(m *Model, typ trace.ActionType) int {
		n := 0
		for _, idx := range m.Script() {
			ph := m.Phases[idx]
			if ph.Coll != nil && ph.Coll.Type == typ {
				n++
			}
		}
		return n
	}
	lu, luRank0 := fixture(t, "lu", "S", 8)
	cg, cgRank0 := fixture(t, "cg", "S", 8)
	ep, epRank0 := fixture(t, "ep", "S", 8)
	for _, tc := range []struct {
		m       *Model
		perRank [][]trace.Action
		typ     trace.ActionType
	}{
		{lu, luRank0, trace.AllReduce},
		{lu, luRank0, trace.Bcast},
		{cg, cgRank0, trace.AllReduce},
		{ep, epRank0, trace.AllReduce},
	} {
		want := 0
		for _, a := range tc.perRank[0] {
			if a.Type == tc.typ {
				want++
			}
		}
		if got := count(tc.m, tc.typ); got != want {
			t.Errorf("%s: script carries %d %s phases, trace has %d", tc.m.App, got, tc.typ, want)
		}
	}
	// CG: 2 allReduce per inner iteration x 25 inner x 15 outer + 15 outer
	// residuals = 765.
	if got := count(cg, trace.AllReduce); got != 765 {
		t.Errorf("cg.S: expected 765 allReduces, got %d", got)
	}
	if got := count(ep, trace.AllReduce); got != 3 {
		t.Errorf("ep.S: expected 3 allReduces, got %d", got)
	}
}

// TestFitCompressesScript checks the model is a compact program, not a
// replayed transcript: LU's five (iterate-50, allReduce) blocks compress
// into a repeated top-level body, and the phase table stays small.
func TestFitCompressesScript(t *testing.T) {
	m, perRank := fixture(t, "lu", "S", 8)
	modelOps := 0
	for _, ph := range m.Phases {
		if ph.Seg != nil {
			modelOps += len(ph.Seg.Pre) + len(ph.Seg.Body) + len(ph.Seg.Tail)
		}
	}
	recorded := 0
	for _, acts := range perRank {
		recorded += len(acts)
	}
	if modelOps*20 > recorded {
		t.Errorf("model holds %d template ops for %d recorded actions — compression failed", modelOps, recorded)
	}
}

// TestFitRejectsUnfittable: traces outside the model's shape must fail
// loudly, not silently misfit — MG's periodic 3D torus wraps around the
// grid and cannot be expressed as bounded offsets.
func TestFitRejectsUnfittable(t *testing.T) {
	perRank, err := npb.RecordAll("mg", "S", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(perRank); err == nil {
		t.Fatal("fitting MG (periodic torus) unexpectedly succeeded")
	}
	// A rank-asymmetric collective skeleton must be refused too.
	bad := [][]trace.Action{
		{{Proc: 0, Type: trace.AllReduce, Peer: -1, Volume: 8, Volume2: 10}},
		{{Proc: 1, Type: trace.AllReduce, Peer: -1, Volume: 8, Volume2: 11}},
	}
	if _, err := Fit(bad); err == nil {
		t.Fatal("fitting a rank-divergent collective skeleton unexpectedly succeeded")
	}
}

// TestFitModelJSONRoundTrip: the model survives its JSON codec.
func TestFitModelJSONRoundTrip(t *testing.T) {
	m, _ := fixture(t, "lu", "S", 8)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("reading model back: %v", err)
	}
	g1, err := NewGen(m, DefaultSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGen(back, DefaultSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 32; r += 7 {
		a1, err1 := g1.Actions(r)
		a2, err2 := g2.Actions(r)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if err := sameActions(a1, a2); err != nil {
			t.Fatalf("rank %d differs after JSON round trip: %v", r, err)
		}
	}
}

// TestFitDirSizedByFilesFound: a rank count far past the directory's ranks
// fails naming the first missing rank without allocating a table of that
// count, and a rank that fails to read beats the missing higher one, as in
// a serial loop. Reading the two ranks takes ~136 KB, mostly their 64 KB
// read buffers; one table of 1<<20 action lists alone would take 24 MB.
func TestFitDirSizedByFilesFound(t *testing.T) {
	dir := t.TempDir()
	for r := 0; r < 2; r++ {
		body := fmt.Sprintf("p%d comm_size 2\np%d compute 1e6\n", r, r)
		if err := os.WriteFile(filepath.Join(dir, trace.ProcessFileName(r)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := FitDir(dir, 1<<20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "no trace for rank 2 ") {
		t.Fatalf("FitDir(dir, 1<<20) = %v, %v; want rank 2 missing", m, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("failed fit of 2 of 1<<20 ranks allocated %d B, want under 1 MB", d)
	}

	if err := os.WriteFile(filepath.Join(dir, trace.ProcessFileName(1)), []byte("p1 compute abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FitDir(dir, 1<<20); err == nil || !strings.Contains(err.Error(), trace.ProcessFileName(1)+": line 1: ") {
		t.Fatalf("FitDir with rank 1 malformed: %v, want rank 1's read error", err)
	}
}
