package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/trace"
)

// rankActions decodes every rank of a trace set.
func rankActions(t *testing.T, ts *TraceSet) [][]trace.Action {
	t.Helper()
	perRank := make([][]trace.Action, ts.Ranks())
	for r := range perRank {
		src, err := ts.source(r)
		if err != nil {
			t.Fatal(err)
		}
		for {
			a, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			perRank[r] = append(perRank[r], a)
		}
	}
	return perRank
}

// writeCodecDirs writes perRank under root as text, gzip and .tib files,
// one directory per codec, and returns the directories by codec name.
func writeCodecDirs(t *testing.T, root string, perRank [][]trace.Action) map[string]string {
	t.Helper()
	dirs := map[string]string{}
	for codec, name := range map[string]func(int) string{
		"text": trace.ProcessFileName, "gzip": trace.GzipFileName, "tib": trace.BinaryFileName,
	} {
		dir := filepath.Join(root, codec)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for r, acts := range perRank {
			path := filepath.Join(dir, name(r))
			var err error
			if codec == "tib" {
				var buf bytes.Buffer
				if err = trace.EncodeBinary(&buf, acts); err == nil {
					err = os.WriteFile(path, buf.Bytes(), 0o644)
				}
			} else {
				err = trace.WriteFile(path, acts)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		dirs[codec] = dir
	}
	return dirs
}

// TestCodecEquivalence writes every golden corpus fixture as text, gzip and
// .tib files. LoadDir must give each rank the bytes of its .tib file, and a
// coll x ckpt grid must replay to equal rows, timed traces and metrics JSON
// from all three directories.
func TestCodecEquivalence(t *testing.T) {
	for _, f := range goldenFixtures {
		t.Run(f.name, func(t *testing.T) {
			perRank := rankActions(t, f.traces(t))
			dirs := writeCodecDirs(t, t.TempDir(), perRank)
			grid := mustGrid(t, GridSpec{Coll: "linear;binomial", Ckpt: "none;" + f.ckpt})
			want := map[string]string{}
			for _, codec := range []string{"tib", "text", "gzip"} {
				ts, err := LoadDir(dirs[codec], f.ranks)
				if err != nil {
					t.Fatal(err)
				}
				defer ts.Close()
				for r := range perRank {
					tib, err := os.ReadFile(filepath.Join(dirs["tib"], trace.BinaryFileName(r)))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(ts.images[r], tib) {
						t.Fatalf("%s: rank %d image (%d B) differs from its .tib file (%d B)",
							codec, r, len(ts.images[r]), len(tib))
					}
				}
				res, err := Run(context.Background(), &Config{Platform: platform.Bordereau(f.ranks), Grid: grid,
					Traces: ts, Workers: 2, Timed: true, Profile: true, Metrics: true, Fork: true})
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for i := range res.Scenarios {
					r := &res.Scenarios[i]
					if r.Err != "" {
						t.Fatalf("%s: scenario %s: %s", codec, r.Name, r.Err)
					}
					got[r.Name+"/timed"] = digest(r.TimedTrace)
					if got[r.Name+"/row"], err = rowDigest(r); err != nil {
						t.Fatal(err)
					}
				}
				var mj strings.Builder
				if err := res.WriteMetricsJSON(&mj); err != nil {
					t.Fatal(err)
				}
				got["metrics"] = digest([]byte(mj.String()))
				if codec == "tib" {
					want = got
					continue
				}
				for k, d := range want {
					if got[k] != d {
						t.Errorf("%s: %s differs from the .tib replay", codec, k)
					}
				}
			}
		})
	}
}

// TestLoadDirResidentSize pins what a loaded text trace costs: NPB LU class
// S on 8 ranks, written as text, must add less live heap than its own byte
// size once loaded: decoded actions would take about 4.3 times the text,
// images take about 0.6 times.
func TestLoadDirResidentSize(t *testing.T) {
	perRank, err := npb.RecordAll("lu", "S", 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeCodecDirs(t, t.TempDir(), perRank)["text"]
	perRank = nil
	var text int64
	for r := 0; r < 8; r++ {
		fi, err := os.Stat(filepath.Join(dir, trace.ProcessFileName(r)))
		if err != nil {
			t.Fatal(err)
		}
		text += fi.Size()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ts, err := LoadDir(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ts)
	added := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d B of text hold %d B of live heap once loaded (%.2fx)", text, added, float64(added)/float64(text))
	if added >= text {
		t.Fatalf("loading %d B of text added %d B of live heap (%.2fx), want less than the text",
			text, added, float64(added)/float64(text))
	}
}

// TestTracesFromActionsInvalid: an action that fails Validate keeps its
// rank from being encoded, and every scenario replaying that rank fails
// with the action's error instead of replaying it.
func TestTracesFromActionsInvalid(t *testing.T) {
	mk := func(rank, peer int, vol float64) []trace.Action {
		return []trace.Action{
			{Proc: rank, Type: trace.Compute, Peer: -1, Volume: vol},
			{Proc: rank, Type: trace.Send, Peer: peer, Volume: 1e3},
			{Proc: rank, Type: trace.Recv, Peer: peer},
		}
	}
	bad := mk(1, 0, 1e6)
	bad[1].Volume = math.NaN()
	ts := TracesFromActions([][]trace.Action{mk(0, 1, 1e6), bad})
	res, err := Run(context.Background(), &Config{Platform: platform.Bordereau(2),
		Grid: Grid{LatencyScale: []float64{1, 2}}, Traces: ts})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Scenarios {
		if !strings.Contains(r.Err, "sweep: rank 1: action 2: trace: bad message size NaN") {
			t.Errorf("scenario %s: err %q, want rank 1's bad action", r.Name, r.Err)
		}
	}
}
