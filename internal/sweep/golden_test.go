package sweep

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
)

// The golden corpus pins the replay's outputs — every scenario's timed
// trace, every row (makespan bits, profile, metrics, resilience, error) and
// every grid's metrics JSON — as SHA-256 digests in testdata/golden.json.
// Any change to the kernel, the handlers, the collective schedules, the
// routers or the fault machinery that moves a single output bit fails here.
// A deliberate change regenerates the file with
//
//	go test ./internal/sweep -run TestGoldenCorpus -update

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

const goldenPath = "testdata/golden.json"

// goldenFile is the on-disk corpus: digests keyed
// "<fixture>/<grid>/<cell>/<output>" (and "<fixture>/<grid>/metrics").
type goldenFile struct {
	Note    string            `json:"note"`
	Digests map[string]string `json:"digests"`
}

// goldenFixture is one trace set of the corpus, with fault clauses and a
// checkpoint interval that fall inside its fault-free makespan.
type goldenFixture struct {
	name   string
	ranks  int
	traces func(t *testing.T) *TraceSet
	bw     string // a "bw:" degradation window
	host   string // a "host:" fail-stop
	ckpt   string // one checkpoint protocol
}

func npbFixture(app string) func(t *testing.T) *TraceSet {
	return func(t *testing.T) *TraceSet {
		perRank, err := npb.RecordAll(app, "S", 8)
		if err != nil {
			t.Fatal(err)
		}
		return TracesFromActions(perRank)
	}
}

// goldenFixtures: NPB LU, CG and EP class S on 8 ranks (makespans 0.169,
// 0.695 and 0.110 s on bordereau), and the committed 4-rank mixed trace
// (0.234 s): Isend/Irecv/wait queues, eager and rendezvous sends, every
// collective kind back to back, then rank-skewed compute between
// back-to-back allReduce/bcast rounds.
var goldenFixtures = []goldenFixture{
	{name: "lu", ranks: 8, traces: npbFixture("lu"),
		bw: "bw:0.5@0.03-0.09", host: "host:1@0.08", ckpt: "0.05/0.002"},
	{name: "cg", ranks: 8, traces: npbFixture("cg"),
		bw: "bw:0.5@0.1-0.35", host: "host:1@0.3", ckpt: "0.2/0.005"},
	{name: "ep", ranks: 8, traces: npbFixture("ep"),
		bw: "bw:0.5@0.05-0.11", host: "host:1@0.05", ckpt: "0.03/0.001"},
	{name: "mixed", ranks: 4, traces: func(t *testing.T) *TraceSet {
		ts, err := LoadDir("testdata/mixed", 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts.Close() })
		return ts
	}, bw: "bw:0.5@0.02-0.12", host: "host:1@0.1", ckpt: "0.06/0.002"},
}

// goldenColls is the collective axis of the topology grids.
const goldenColls = "linear;binomial;auto;allReduce=ring"

// goldenGrids are two targeted grids rather than the full cross product:
// every topology against every collective setting (the base bordereau
// platform and the generated zoo are separate sweeps, as a topology axis
// replaces the base platform in every cell), and on bordereau every fault
// against every checkpoint setting.
func goldenGrids(f goldenFixture) map[string]GridSpec {
	return map[string]GridSpec{
		"bordereau": {Coll: goldenColls},
		"zoo":       {Topo: "fat-tree:4,torus:4x4,dragonfly:2x4x2", Coll: goldenColls},
		"faults":    {Fault: "none;" + f.bw + ";" + f.host, Ckpt: "none;" + f.ckpt},
	}
}

// TestGoldenCorpus replays every fixture over every golden grid with timed
// traces, profiles, metrics and forking on, and compares the digests of all
// outputs with testdata/golden.json: a differing, missing or extra entry
// fails, naming it.
func TestGoldenCorpus(t *testing.T) {
	got := goldenDigests(t, false)
	if *update {
		b, err := json.MarshalIndent(goldenFile{
			Note:    "SHA-256 digests of the replay outputs; regenerate with go test ./internal/sweep -run TestGoldenCorpus -update",
			Digests: got,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	checkGolden(t, got)
}

// TestGoldenCorpusStreamed replays the corpus with the timed traces
// streamed into files (TimedDir) and checks the traces read back from disk
// against the same corpus entries: streamed output is buffered output, byte
// for byte, on shared and error rows alike.
func TestGoldenCorpusStreamed(t *testing.T) {
	checkGolden(t, goldenDigests(t, true))
}

// goldenDigests replays the corpus and digests its outputs, reading the
// timed traces back from their files when stream is set.
func goldenDigests(t *testing.T, stream bool) map[string]string {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the corpus pins float bits as compiled for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := make(map[string]string)
	for _, f := range goldenFixtures {
		ts := f.traces(t)
		for name, spec := range goldenGrids(f) {
			grid, err := spec.Parse()
			if err != nil {
				t.Fatal(err)
			}
			cfg := &Config{
				Platform: platform.Bordereau(f.ranks),
				Grid:     grid,
				Traces:   ts,
				Workers:  2,
				Timed:    true,
				Profile:  true,
				Metrics:  true,
				Fork:     true,
			}
			res, err := runTimed(t, cfg, stream)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.name, name, err)
			}
			prefix := f.name + "/" + name + "/"
			for i := range res.Scenarios {
				r := &res.Scenarios[i]
				cell := prefix + strings.TrimPrefix(r.Name, "lat=1 bw=1 pow=1 fold=1 ")
				got[cell+"/timed"] = digest(r.TimedTrace)
				if got[cell+"/row"], err = rowDigest(r); err != nil {
					t.Fatal(err)
				}
			}
			var mj strings.Builder
			if err := res.WriteMetricsJSON(&mj); err != nil {
				t.Fatal(err)
			}
			got[prefix+"metrics"] = digest([]byte(mj.String()))
		}
	}
	return got
}

// checkGolden compares digests with testdata/golden.json.
func checkGolden(t *testing.T, got map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	var bad []string
	for k, d := range got {
		switch w, ok := want.Digests[k]; {
		case !ok:
			bad = append(bad, "not in the corpus: "+k)
		case w != d:
			bad = append(bad, "differs: "+k)
		}
	}
	for k := range want.Digests {
		if _, ok := got[k]; !ok {
			bad = append(bad, "not produced: "+k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Errorf("%d of %d corpus entries do not match %s:\n  %s\n"+
			"if the change is deliberate, regenerate with: go test ./internal/sweep -run TestGoldenCorpus -update",
			len(bad), len(want.Digests), goldenPath, strings.Join(bad, "\n  "))
	}
}

func digest(b []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(b)) }

// rowDigest hashes a scenario's JSON row without the fields that vary
// between runs of the same question (the ones bench's rows digest drops):
// host wall time and the fork bookkeeping. Shortest-form JSON floats
// round-trip exactly, so the digest pins the makespan bits.
func rowDigest(r *ScenarioResult) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	var row map[string]json.RawMessage
	if err := json.Unmarshal(b, &row); err != nil {
		return "", err
	}
	delete(row, "wall_ns")
	delete(row, "forked")
	delete(row, "prefix_actions")
	if b, err = json.Marshal(row); err != nil { // map keys marshal sorted
		return "", err
	}
	return digest(b), nil
}
