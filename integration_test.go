package tireplay_bench

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"tireplay/internal/acquisition"
	"tireplay/internal/calibrate"
	"tireplay/internal/convert"
	"tireplay/internal/gather"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/tau"
	"tireplay/internal/trace"
)

// TestFullPipelineEndToEnd drives the complete framework the way the
// command-line tools chain it: instrument + execute -> extract -> split to
// per-process files -> gather -> replay from the deployment's trace-file
// arguments -> predicted time, for an LU instance.
func TestFullPipelineEndToEnd(t *testing.T) {
	const procs = 8
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassS, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}

	// Acquisition (live engine).
	tauDir := t.TempDir()
	_, files, err := tau.AcquireLive(tauDir, mpi.LiveConfig{Procs: procs}, 1e-6, prog)
	if err != nil {
		t.Fatal(err)
	}
	if files.TraceBytes <= 0 {
		t.Fatal("no TAU bytes written")
	}

	// Extraction.
	perRank, err := convert.ExtractDir(tauDir, procs)
	if err != nil {
		t.Fatal(err)
	}

	// Per-process trace files.
	tiDir := t.TempDir()
	paths, err := trace.WriteSplit(tiDir, procs, convert.Flatten(perRank))
	if err != nil {
		t.Fatal(err)
	}

	// Gathering: merge and check the merged trace parses to the same count.
	merged := filepath.Join(tiDir, "merged.trace")
	if _, err := gather.Concat(paths, merged); err != nil {
		t.Fatal(err)
	}
	mergedActions, err := trace.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, acts := range perRank {
		want += len(acts)
	}
	if len(mergedActions) != want {
		t.Fatalf("merged trace has %d actions, want %d", len(mergedActions), want)
	}

	// Replay from the deployment's per-process trace files.
	b, err := platform.BuildBordereauWithCores(procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err = d.WithTraceArgs(paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.RunFiles(b, d, replay.Config{Model: smpi.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 || int(res.Actions) != want {
		t.Fatalf("replay: time=%g actions=%d want=%d", res.SimulatedTime, res.Actions, want)
	}
}

// TestCalibratedReplayTracksLiveExecution closes the predictive loop at
// constant flop rate: replaying a trace on a platform calibrated from the
// acquisition must land near the live engine's own makespan.
func TestCalibratedReplayTracksLiveExecution(t *testing.T) {
	const procs = 4
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassW, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	liveCfg := mpi.LiveConfig{
		Procs:     procs,
		FlopRate:  platform.BordereauPower,
		Latency:   3 * platform.ClusterLatency,
		Bandwidth: platform.GigaEthernetBw,
	}
	dir := t.TempDir()
	liveTime, files, err := tau.AcquireLive(dir, liveCfg, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, rate, err := calibrate.MeasureFlopRate(files)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-platform.BordereauPower)/platform.BordereauPower > 0.01 {
		t.Fatalf("calibrated rate %g differs from configured %g", rate, platform.BordereauPower)
	}
	perRank, err := convert.ExtractDir(dir, procs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.BuildBordereauCustom(procs, 1, rate)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.RunActions(b, d, replay.Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	// Engines differ (LogP-style clocks vs flow-level contention), so allow
	// a generous envelope — the paper itself reports errors up to ~50%.
	ratio := res.SimulatedTime / liveTime
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("replayed %.3fs vs live %.3fs (ratio %.2f)", res.SimulatedTime, liveTime, ratio)
	}
}

// TestAcquisitionCampaignToReplay exercises the simulation-engine
// acquisition path end to end under a folded mode.
func TestAcquisitionCampaignToReplay(t *testing.T) {
	const procs = 8
	// Class W is compute-bound, so the folded acquisition is slower than
	// the regular-mode execution the replay predicts (class S would be
	// latency-bound and folding would speed it up via loopback traffic).
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassW, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	camp := &acquisition.Campaign{Procs: procs, Program: prog, OverheadPerEvent: 1e-6}
	dir := t.TempDir()
	rep, err := camp.Run(dir, acquisition.Folding(4), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.TIFiles); got != procs {
		t.Fatalf("TI files = %d", got)
	}
	perRank := make([][]trace.Action, procs)
	for r, p := range rep.TIFiles {
		if perRank[r], err = trace.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	b, err := platform.BuildBordereauWithCores(procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.RunActions(b, d, replay.Config{}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("non-positive simulated time")
	}
	// The folded acquisition ran 4x slower than regular, yet the replay
	// predicts the regular-mode time: it must be well under the folded
	// instrumented execution time.
	if res.SimulatedTime >= rep.InstrumentedTime {
		t.Fatalf("replayed time %.2fs not below folded execution %.2fs",
			res.SimulatedTime, rep.InstrumentedTime)
	}
}

// TestBinaryTraceInterchange verifies the binary codec round-trips through
// the file layer inside a realistic pipeline.
func TestBinaryTraceInterchange(t *testing.T) {
	const procs = 4
	perRank, err := npb.RecordAll("lu", npb.ClassS.Name, procs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var textTotal, binTotal int64
	for r, acts := range perRank {
		binPath := filepath.Join(dir, "r.tib")
		f, err := os.Create(binPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeBinary(f, acts); err != nil {
			t.Fatal(err)
		}
		f.Close()
		back, err := trace.ReadFile(binPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(acts) {
			t.Fatalf("rank %d: binary round trip %d != %d", r, len(back), len(acts))
		}
		st, _ := os.Stat(binPath)
		binTotal += st.Size()
		for _, a := range acts {
			textTotal += int64(len(a.Format())) + 1
		}
	}
	if binTotal >= textTotal {
		t.Fatalf("binary (%d B) not smaller than text (%d B)", binTotal, textTotal)
	}
}
