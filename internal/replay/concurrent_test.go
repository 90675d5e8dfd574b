package replay

import (
	"sync"
	"testing"

	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// pairTraces builds a 4-rank trace set split into two independent pairs
// (0,1) and (2,3); the first pair computes twice as long, so it decides the
// makespan.
func pairTraces() [][]trace.Action {
	mk := func(r, peer int, flops float64) []trace.Action {
		return []trace.Action{
			{Proc: r, Type: trace.CommSize, Volume: 4, Peer: -1},
			{Proc: r, Type: trace.Compute, Volume: flops, Peer: -1},
			{Proc: r, Type: trace.Send, Peer: peer, Volume: 1e4},
			{Proc: r, Type: trace.Irecv, Peer: peer},
			{Proc: r, Type: trace.Wait, Peer: -1},
		}
	}
	return [][]trace.Action{
		mk(0, 1, 2e8), mk(1, 0, 2e8), mk(2, 3, 1e8), mk(3, 2, 1e8),
	}
}

func buildFour(t *testing.T) (*platform.Build, *platform.Deployment) {
	t.Helper()
	b, err := platform.BuildBordereauWithCores(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

// TestConcurrentRunsIndependent pins the concurrency contract documented on
// Run: many runs over one shared read-only action set, each with its own
// Build, agree exactly with a reference serial run. The CI race job replays
// this under -race.
func TestConcurrentRunsIndependent(t *testing.T) {
	perRank := pairTraces()
	b, d := buildFour(t)
	ref, err := RunActions(b, d, Config{Model: smpi.Default()}, perRank)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	times := make([]float64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := platform.BuildBordereauWithCores(4, 1)
			if err != nil {
				errs[i] = err
				return
			}
			d, err := platform.RoundRobin(b.HostNames, 4, 1)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := RunActions(b, d, Config{Model: smpi.Default()}, perRank)
			if err != nil {
				errs[i] = err
				return
			}
			times[i] = res.SimulatedTime
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if times[i] != ref.SimulatedTime {
			t.Fatalf("run %d: %g != reference %g", i, times[i], ref.SimulatedTime)
		}
	}
}

// TestRankMappingValidation exercises the world-size error paths: the
// world is always the deployment, so a WorldSize naming any other size is
// rejected before anything replays.
func TestRankMappingValidation(t *testing.T) {
	perRank := pairTraces()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"world below deployment", Config{WorldSize: 1}},
		{"world above deployment", Config{WorldSize: 3}},
	}
	for _, c := range cases {
		b, err := platform.BuildBordereauWithCores(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := platform.RoundRobin(b.HostNames, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(b, d, c.cfg, []Source{SliceSource(perRank[0]), SliceSource(perRank[1])}); err == nil {
			t.Fatalf("%s: no error", c.name)
		}
	}
}
