package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/synth"
)

// luModelJSON fits the synthetic model of one recorded LU run and renders
// it the way tigen fit does — the inline payload of a sweep request's
// "synth" field.
func luModelJSON(tb testing.TB, class npb.Class, procs int) string {
	tb.Helper()
	m, err := synth.Fit(luActions(tb, class, procs))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestSweepSynthetic serves a sweep with no stored trace at all: every
// cell regenerates from the inline fitted model at its world size.
func TestSweepSynthetic(t *testing.T) {
	d := newTestDaemon(t, Config{})
	model := luModelJSON(t, npb.ClassS, 16)

	body := fmt.Sprintf(`{"grid":{"world":"8,16","bw":"0.5,1"},"synth":{"model":%s,"scale":"strong"}}`, model)
	st, xc, first := d.post(t, "/sweeps", body)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("first sweep: status %d cache %q: %s", st, xc, first)
	}
	var resp SweepResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "" {
		t.Fatalf("all-synthetic response names trace %q, want none", resp.Trace)
	}
	if len(resp.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(resp.Scenarios))
	}
	actionsBy := map[int]int64{}
	for i, sc := range resp.Scenarios {
		if sc.Err != "" {
			t.Fatalf("scenario %d failed: %s", i, sc.Err)
		}
		if sc.World <= 0 || sc.SimulatedTime <= 0 || sc.Actions <= 0 {
			t.Fatalf("scenario %d: empty outcome %+v", i, sc)
		}
		actionsBy[sc.World] = sc.Actions
	}
	if actionsBy[8] >= actionsBy[16] {
		t.Fatalf("larger world must replay more actions: %d@8 vs %d@16",
			actionsBy[8], actionsBy[16])
	}

	// The repeat is a byte-identical body-hash hit with zero replay.
	st, xc, second := d.post(t, "/sweeps", body)
	if st != http.StatusOK || xc != "hit" {
		t.Fatalf("second sweep: status %d cache %q", st, xc)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached synthetic response is not byte-identical")
	}
	if runs := d.srv.sweepsRun.Load(); runs != 1 {
		t.Fatalf("served the repeat from cache but ran %d sweeps", runs)
	}
}

// TestSweepSynthPastBordereau serves a synthetic world larger than the
// bordereau cluster without naming a platform: the default base is the
// whole 93-node cluster, and the world folds round-robin onto it. EP keeps
// the 192-rank replay to a few actions per rank.
func TestSweepSynthPastBordereau(t *testing.T) {
	d := newTestDaemon(t, Config{})
	perRank, err := npb.RecordAll("ep", npb.ClassS.Name, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := synth.Fit(perRank)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := m.WriteJSON(&model); err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"grid":{"world":"192"},"synth":{"model":%s}}`, model.String())
	st, _, raw := d.post(t, "/sweeps", body)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, raw)
	}
	var resp SweepResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Platform != "bordereau:93x1" {
		t.Fatalf("platform %q, want bordereau:93x1", resp.Platform)
	}
	if len(resp.Scenarios) != 1 || resp.Scenarios[0].Err != "" || resp.Scenarios[0].Actions <= 0 {
		t.Fatalf("want one replayed row: %s", raw)
	}
}

// TestSweepSynthCanonicalKey pins the canonical identity of the model:
// a respelled request (reordered keys, explicit default scale) hits the
// same cache entry, while a different seed is a different sweep.
func TestSweepSynthCanonicalKey(t *testing.T) {
	d := newTestDaemon(t, Config{})
	model := luModelJSON(t, npb.ClassS, 16)

	base := fmt.Sprintf(`{"grid":{"world":"8"},"synth":{"model":%s}}`, model)
	st, xc, first := d.post(t, "/sweeps", base)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("base: status %d cache %q: %s", st, xc, first)
	}

	// Same model respelled: explicit weak scale, reordered request keys.
	variant := fmt.Sprintf(`{"synth":{"scale":"weak","model":%s},"grid":{"world":"8"}}`, model)
	st, xc, got := d.post(t, "/sweeps", variant)
	if st != http.StatusOK || xc != "hit" {
		t.Fatalf("variant: status %d cache %q: %s", st, xc, got)
	}
	if !bytes.Equal(first, got) {
		t.Fatal("respelled synthetic request served different bytes")
	}

	// A different jitter seed is a different question.
	seeded := fmt.Sprintf(`{"grid":{"world":"8"},"synth":{"model":%s,"seed":7,"jitter":0.1}}`, model)
	st, xc, _ = d.post(t, "/sweeps", seeded)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("seeded: status %d cache %q", st, xc)
	}
	if runs := d.srv.sweepsRun.Load(); runs != 2 {
		t.Fatalf("ran %d sweeps, want 2 (base + seeded)", runs)
	}
}

// TestSweepSynthMixed mixes the recorded world (entry 0, replaying the
// stored trace) with its synthetic twin in one grid: at the recorded size
// the fitted model is exact, so both rows agree bit-for-bit.
func TestSweepSynthMixed(t *testing.T) {
	const procs = 8
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, procs)
	model := luModelJSON(t, npb.ClassS, procs)

	body := fmt.Sprintf(`{"trace":%q,"grid":{"world":"0,%d"},"synth":{"model":%s}}`, dig, procs, model)
	st, _, raw := d.post(t, "/sweeps", body)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, raw)
	}
	var resp SweepResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != dig || len(resp.Scenarios) != 2 {
		t.Fatalf("trace %q, %d scenarios; want %q and 2", resp.Trace, len(resp.Scenarios), dig)
	}
	rec, syn := resp.Scenarios[0], resp.Scenarios[1]
	if rec.Err != "" || syn.Err != "" {
		t.Fatalf("errs: %q, %q", rec.Err, syn.Err)
	}
	if rec.World != 0 || syn.World != procs {
		t.Fatalf("worlds %d, %d; want 0, %d", rec.World, syn.World, procs)
	}
	if rec.Actions != syn.Actions || rec.SimulatedTime != syn.SimulatedTime {
		t.Fatalf("recorded (%d actions, %g) != synthetic twin (%d actions, %g)",
			rec.Actions, rec.SimulatedTime, syn.Actions, syn.SimulatedTime)
	}
}

// TestSweepSynthErrors pins the request-validation surface of the world
// axis: every misuse is the client's 4xx, never a mid-sweep failure.
func TestSweepSynthErrors(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)
	model := luModelJSON(t, npb.ClassS, 16)
	cases := []struct {
		name, body string
		status     int
		want       string
	}{
		{"world without synth", `{"grid":{"world":"8"}}`,
			http.StatusBadRequest, "needs a fitted model"},
		{"synth without world",
			fmt.Sprintf(`{"synth":{"model":%s}}`, model),
			http.StatusBadRequest, "needs a positive world"},
		{"recorded cell without trace",
			fmt.Sprintf(`{"grid":{"world":"0,8"},"synth":{"model":%s}}`, model),
			http.StatusBadRequest, "need a trace set"},
		{"synth with only the recorded world",
			fmt.Sprintf(`{"trace":%q,"grid":{"world":"0"},"synth":{"model":%s}}`, dig, model),
			http.StatusBadRequest, "needs a positive world"},
		{"empty model", `{"grid":{"world":"8"},"synth":{}}`,
			http.StatusBadRequest, "synth needs a model"},
		{"bad model", `{"grid":{"world":"8"},"synth":{"model":{"app":42}}}`,
			http.StatusBadRequest, "bad synth model"},
		{"bad scale",
			fmt.Sprintf(`{"grid":{"world":"8"},"synth":{"model":%s,"scale":"sideways"}}`, model),
			http.StatusBadRequest, "bad synth scale"},
		{"bad world list", `{"grid":{"world":"8,-1"}}`,
			http.StatusBadRequest, "bad grid"},
		{"reps law past the action bound",
			fmt.Sprintf(`{"grid":{"world":"64"},"synth":{"model":%s,"scale":"reps=20"}}`, model),
			http.StatusBadRequest, "one sweep cell may replay"},
	}
	for _, tc := range cases {
		st, _, resp := d.post(t, "/sweeps", tc.body)
		if st != tc.status || !strings.Contains(string(resp), tc.want) {
			t.Errorf("%s: status %d body %s; want %d containing %q",
				tc.name, st, resp, tc.status, tc.want)
		}
	}
	if runs := d.srv.sweepsRun.Load(); runs != 0 {
		t.Fatalf("invalid requests ran %d sweeps", runs)
	}
}
