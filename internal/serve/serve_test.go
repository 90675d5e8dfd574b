package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/sweep"
)

// TestUploadSweepAndCacheHit is the core service contract: upload once,
// sweep once (miss), ask again (hit) and get the identical bytes back with
// zero additional replay.
func TestUploadSweepAndCacheHit(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)

	body := fmt.Sprintf(`{"trace":%q,"grid":{"coll":"default;bcast=binomial","lat":"1,2"}}`, dig)
	st, xc, first := d.post(t, "/sweeps", body)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("first sweep: status %d cache %q: %s", st, xc, first)
	}
	var resp SweepResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(resp.Scenarios))
	}
	for i, sc := range resp.Scenarios {
		if sc.Err != "" {
			t.Fatalf("scenario %d failed: %s", i, sc.Err)
		}
		if sc.SimulatedTime <= 0 || sc.Actions <= 0 {
			t.Fatalf("scenario %d: empty outcome %+v", i, sc)
		}
	}
	if resp.Trace != dig {
		t.Fatalf("response names trace %q, want %q", resp.Trace, dig)
	}

	st, xc, second := d.post(t, "/sweeps", body)
	if st != http.StatusOK || xc != "hit" {
		t.Fatalf("second sweep: status %d cache %q", st, xc)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached response is not byte-identical to the computed one")
	}
	if runs := d.srv.sweepsRun.Load(); runs != 1 {
		t.Fatalf("served the repeat from cache but ran %d sweeps", runs)
	}
	stats := d.srv.Snapshot()
	if stats.Cache.BodyHits != 1 {
		t.Fatalf("expected 1 body-hash hit, got %+v", stats.Cache)
	}
	// One fresh sweep is exactly one miss: the flight's post-enter
	// re-check must not count a second one.
	if stats.Cache.Misses != 1 {
		t.Fatalf("expected 1 cache miss for one fresh sweep, got %+v", stats.Cache)
	}
}

// TestCanonicalSpellingHits exercises the canonical layer: requests that
// differ in JSON formatting, axis spelling or execution-only options share
// one cache entry.
func TestCanonicalSpellingHits(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)

	base := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,2","bw":"1"}}`, dig)
	st, xc, first := d.post(t, "/sweeps", base)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("base: status %d cache %q: %s", st, xc, first)
	}

	variants := []string{
		// Reordered keys, extra whitespace.
		fmt.Sprintf(`{ "grid": {"bw":"1", "lat":"1,2"}, "trace": %q }`, dig),
		// Axis value respelled ("1.0" parses to the same float as "1").
		fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1.0, 2.0","bw":"1.0"}}`, dig),
		// Default bw axis omitted entirely.
		fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,2"}}`, dig),
		// Fork disabled: execution-only, result-identical by construction.
		fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,2"},"fork":false}`, dig),
		// Explicit platform naming the default.
		fmt.Sprintf(`{"trace":%q,"platform":"bordereau:4","grid":{"lat":"1,2"}}`, dig),
	}
	for i, v := range variants {
		st, xc, got := d.post(t, "/sweeps", v)
		if st != http.StatusOK || xc != "hit" {
			t.Fatalf("variant %d: status %d cache %q: %s", i, st, xc, got)
		}
		if !bytes.Equal(first, got) {
			t.Fatalf("variant %d: response differs from base", i)
		}
	}
	if runs := d.srv.sweepsRun.Load(); runs != 1 {
		t.Fatalf("variants replayed: %d sweeps run, want 1", runs)
	}
}

// TestUploadPathMixedEncodings registers a trace directory holding text,
// gzip and binary ranks; the sweep must replay it like the inline upload,
// and re-registration must dedup to the same digest.
func TestUploadPathMixedEncodings(t *testing.T) {
	d := newTestDaemon(t, Config{AllowPaths: true})
	dir := t.TempDir()
	writeTraceDir(t, dir, luActions(t, npb.ClassS, 4))

	body, _ := json.Marshal(uploadRequest{Path: dir, Ranks: 4})
	st, _, resp := d.post(t, "/traces", string(body))
	if st != http.StatusOK {
		t.Fatalf("register: status %d: %s", st, resp)
	}
	var up uploadResponse
	if err := json.Unmarshal(resp, &up); err != nil {
		t.Fatal(err)
	}
	if up.Existed || up.Ranks != 4 || !strings.HasPrefix(up.Digest, "sha256:") {
		t.Fatalf("bad registration: %+v", up)
	}

	st, _, resp = d.post(t, "/traces", string(body))
	var again uploadResponse
	if err := json.Unmarshal(resp, &again); err != nil {
		t.Fatal(err)
	}
	if st != http.StatusOK || !again.Existed || again.Digest != up.Digest {
		t.Fatalf("re-register: status %d %+v, want existed dedup of %s", st, again, up.Digest)
	}

	sweepBody := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,4"}}`, up.Digest)
	st, _, out := d.post(t, "/sweeps", sweepBody)
	if st != http.StatusOK {
		t.Fatalf("sweep over mapped traces: status %d: %s", st, out)
	}
	var sr SweepResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scenarios) != 2 || sr.Scenarios[0].Err != "" {
		t.Fatalf("bad sweep result: %s", out)
	}
}

// TestPathRegistrationDisabled verifies the default-off posture.
func TestPathRegistrationDisabled(t *testing.T) {
	d := newTestDaemon(t, Config{})
	body, _ := json.Marshal(uploadRequest{Path: t.TempDir(), Ranks: 2})
	st, _, resp := d.post(t, "/traces", string(body))
	if st != http.StatusForbidden {
		t.Fatalf("path registration without AllowPaths: status %d: %s", st, resp)
	}
}

// TestSweepRequestValidation walks the 4xx surface.
func TestSweepRequestValidation(t *testing.T) {
	d := newTestDaemon(t, Config{MaxScenarios: 8})
	dig := d.uploadLU(t, npb.ClassS, 4)
	// Seven axes of 1024 entries: 2^70 cells, a size that wraps an int to 0.
	ones, nones := strings.Repeat("1,", 1023)+"1", strings.Repeat("none;", 1023)+"none"
	overflow, err := json.Marshal(sweep.GridSpec{Lat: ones, Bw: ones, Power: ones, Fold: ones,
		Hosts: ones, Fault: nones, Ckpt: nones})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown field", fmt.Sprintf(`{"trace":%q,"grids":{}}`, dig), http.StatusBadRequest},
		{"missing trace", `{"grid":{"lat":"1"}}`, http.StatusBadRequest},
		{"unknown digest", `{"trace":"sha256:00","grid":{"lat":"1"}}`, http.StatusNotFound},
		{"bad axis", fmt.Sprintf(`{"trace":%q,"grid":{"lat":"fast"}}`, dig), http.StatusBadRequest},
		{"non-finite axis", fmt.Sprintf(`{"trace":%q,"grid":{"bw":"NaN"}}`, dig), http.StatusBadRequest},
		{"removed partition field", fmt.Sprintf(`{"trace":%q,"partition":true,"grid":{}}`, dig), http.StatusBadRequest},
		{"negative metrics windows", fmt.Sprintf(`{"trace":%q,"metrics":true,"metrics_windows":-1,"grid":{}}`, dig), http.StatusBadRequest},
		{"metrics windows over the cap", fmt.Sprintf(`{"trace":%q,"metrics":true,"metrics_windows":1000000,"grid":{}}`, dig), http.StatusBadRequest},
		{"grid too big", fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,2,3","bw":"1,2,3"}}`, dig), http.StatusBadRequest},
		{"grid size overflows", fmt.Sprintf(`{"trace":%q,"grid":%s}`, dig, overflow), http.StatusBadRequest},
		{"bad platform", fmt.Sprintf(`{"trace":%q,"platform":"gdx:2","grid":{}}`, dig), http.StatusBadRequest},
		{"platform with full topo axis", fmt.Sprintf(`{"trace":%q,"platform":"bordereau:4","grid":{"topo":"fat-tree:4"}}`, dig), http.StatusBadRequest},
		{"not json", `lat=1`, http.StatusBadRequest},
	}
	for _, c := range cases {
		st, _, resp := d.post(t, "/sweeps", c.body)
		if st != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, st, c.status, resp)
		}
	}
	if d.srv.sweepsRun.Load() != 0 {
		t.Fatal("a rejected request reached the engine")
	}

	upCases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both modes", `{"traces":["p0 compute 1"],"path":"/tmp/x","ranks":1}`, http.StatusBadRequest},
		{"garbage rank text", `{"traces":["p0 frobnicate 1"]}`, http.StatusBadRequest},
	}
	for _, c := range upCases {
		st, _, resp := d.post(t, "/traces", c.body)
		if st != c.status {
			t.Errorf("upload %s: status %d, want %d (%s)", c.name, st, c.status, resp)
		}
	}
}

// TestTopoSweepNeedsNoPlatform replays a pure topology grid: no base
// platform is resolved and the generated fabrics carry the whole sweep.
func TestTopoSweepNeedsNoPlatform(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)
	body := fmt.Sprintf(`{"trace":%q,"grid":{"topo":"fat-tree:4,torus:2x2"}}`, dig)
	st, _, out := d.post(t, "/sweeps", body)
	if st != http.StatusOK {
		t.Fatalf("topo sweep: status %d: %s", st, out)
	}
	var sr SweepResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Platform != "" {
		t.Fatalf("topo-only sweep resolved base platform %q", sr.Platform)
	}
	if len(sr.Scenarios) != 2 || sr.Scenarios[0].Err != "" || sr.Scenarios[1].Err != "" {
		t.Fatalf("bad topo sweep result: %s", out)
	}
}

// TestTimedAndProfileRoundTrip checks the optional outputs survive the JSON
// surface and that they key the cache separately from the bare request.
func TestTimedAndProfileRoundTrip(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)

	bare := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1"}}`, dig)
	full := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1"},"timed":true,"profile":true}`, dig)
	if st, _, out := d.post(t, "/sweeps", bare); st != http.StatusOK {
		t.Fatalf("bare: %d %s", st, out)
	}
	st, xc, out := d.post(t, "/sweeps", full)
	if st != http.StatusOK || xc != "miss" {
		t.Fatalf("timed+profile must be a distinct cache key: status %d cache %q", st, xc)
	}
	var sr SweepResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	sc := sr.Scenarios[0]
	if len(sc.Timed) == 0 {
		t.Fatal("timed trace missing from response")
	}
	if len(sc.Profile) != 4 {
		t.Fatalf("profile rows: %d, want 4", len(sc.Profile))
	}
	if !bytes.HasPrefix(sc.Timed, []byte("p0 ")) && !bytes.Contains(sc.Timed, []byte("compute")) {
		t.Fatalf("timed trace does not look like a trace: %q", sc.Timed[:min(len(sc.Timed), 60)])
	}
}

// TestHealthzStatsAndTraceList covers the observability surface.
func TestHealthzStatsAndTraceList(t *testing.T) {
	d := newTestDaemon(t, Config{})
	if st, body := d.get(t, "/healthz"); st != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", st, body)
	}

	dig := d.uploadLU(t, npb.ClassS, 4)
	st, body := d.get(t, "/traces")
	if st != http.StatusOK {
		t.Fatalf("traces list: %d", st)
	}
	var infos []TraceInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Digest != dig || infos[0].Ranks != 4 || infos[0].Refs != 0 {
		t.Fatalf("trace list: %+v", infos)
	}

	d.post(t, "/sweeps", fmt.Sprintf(`{"trace":%q,"grid":{}}`, dig))
	st, body = d.get(t, "/stats")
	if st != http.StatusOK {
		t.Fatalf("stats: %d", st)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SweepsRun != 1 || stats.ScenariosServed != 1 || stats.Requests < 3 {
		t.Fatalf("stats counters off: %+v", stats)
	}
	if stats.EngineWorkers < 1 || stats.Queue.Slots < 1 {
		t.Fatalf("stats shape off: %+v", stats)
	}
}

// TestFaultySweepNotCached: a grid whose scenarios abort under fail-stop
// faults returns per-scenario errors as legitimate results but must not be
// pinned in the cache.
func TestFaultySweepNotCached(t *testing.T) {
	d := newTestDaemon(t, Config{})
	dig := d.uploadLU(t, npb.ClassS, 4)
	// kill host 1 early: the replay aborts, which is the answer.
	body := fmt.Sprintf(`{"trace":%q,"grid":{"fault":"host:1@0.01"}}`, dig)
	st, xc, out := d.post(t, "/sweeps", body)
	if st != http.StatusOK {
		t.Fatalf("faulty sweep: status %d: %s", st, out)
	}
	_ = xc
	var sr SweepResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scenarios[0].Err == "" {
		t.Skip("fault spec did not abort this replay; nothing to assert")
	}
	if st, xc, _ := d.post(t, "/sweeps", body); st != http.StatusOK || xc == "hit" {
		t.Fatalf("errored response was served from cache (status %d cache %q)", st, xc)
	}
	if d.srv.Snapshot().Cache.Entries != 0 {
		t.Fatal("errored response was stored")
	}
}
