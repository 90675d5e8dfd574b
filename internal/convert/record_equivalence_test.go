package convert

import (
	"reflect"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/tau"
)

// TestRecorderMatchesExtraction validates the trace-generator engine that
// the Section 6.5 large-trace study relies on: unrolling a rank in
// isolation (mpi.Record) must produce exactly the actions that the full
// pipeline — instrumented execution, TAU binary traces, tau2simgrid
// extraction — produces.
func TestRecorderMatchesExtraction(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  npb.LUConfig
	}{
		{"S4", npb.LUConfig{Class: npb.ClassS, Procs: 4}},
		{"S8", npb.LUConfig{Class: npb.ClassS, Procs: 8}},
		{"W4", npb.LUConfig{Class: npb.ClassW, Procs: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := npb.LU(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: tc.cfg.Procs}, 0, prog); err != nil {
				t.Fatal(err)
			}
			extracted, err := ExtractDir(dir, tc.cfg.Procs)
			if err != nil {
				t.Fatal(err)
			}
			perRank, err := mpi.RecordAll(tc.cfg.Procs, prog)
			if err != nil {
				t.Fatal(err)
			}
			for rank, recorded := range perRank {
				if !reflect.DeepEqual(recorded, extracted[rank]) {
					max := len(recorded)
					if len(extracted[rank]) < max {
						max = len(extracted[rank])
					}
					for i := 0; i < max; i++ {
						if recorded[i] != extracted[rank][i] {
							t.Fatalf("rank %d diverges at action %d: recorded %q, extracted %q",
								rank, i, recorded[i].Format(), extracted[rank][i].Format())
						}
					}
					t.Fatalf("rank %d lengths differ: recorded %d, extracted %d",
						rank, len(recorded), len(extracted[rank]))
				}
			}
		})
	}
}

// TestRecorderMatchesStatsCount pins the analytic action counts (LUStats)
// against the recorder, for the configurations the large-trace study
// extends to.
func TestRecorderMatchesStatsCount(t *testing.T) {
	for _, cfg := range []npb.LUConfig{
		{Class: npb.ClassS, Procs: 4},
		{Class: npb.ClassS, Procs: 16},
		{Class: npb.ClassW, Procs: 8},
		{Class: npb.ClassA, Procs: 32},
	} {
		stats, err := cfg.Stats()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := npb.LU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perRank, err := mpi.RecordAll(cfg.Procs, prog)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for rank, acts := range perRank {
			if int64(len(acts)) != stats.ActionsPerRank[rank] {
				t.Fatalf("class %s procs %d rank %d: recorded %d actions, stats predict %d",
					cfg.Class.Name, cfg.Procs, rank, len(acts), stats.ActionsPerRank[rank])
			}
			total += int64(len(acts))
		}
		if total != stats.TotalActions {
			t.Fatalf("class %s procs %d: total %d != stats %d",
				cfg.Class.Name, cfg.Procs, total, stats.TotalActions)
		}
	}
}
