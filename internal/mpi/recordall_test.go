package mpi_test

import (
	"reflect"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
)

// TestRecordAllMatchesRecord: RecordAll gives every rank of NPB LU class S
// on 8 ranks the actions Record gives it, and a program that panics on
// ranks 3 and 5 fails naming rank 3, the rank a serial loop stops at, on
// every run. Rank 3 emits 20000 sends first, so rank 5 usually fails first.
func TestRecordAllMatchesRecord(t *testing.T) {
	const procs = 8
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassS, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range procs {
		want, err := mpi.Record(r, procs, prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(perRank[r], want) {
			t.Fatalf("rank %d: RecordAll gave %d actions, Record %d, or they differ", r, len(perRank[r]), len(want))
		}
	}

	panicking := func(c mpi.Comm) {
		switch c.Rank() {
		case 3:
			for range 20000 {
				c.Send(0, 1)
			}
			panic("rank 3")
		case 5:
			panic("rank 5")
		}
	}
	const want = "mpi: recorded rank 3 panicked: rank 3"
	for i := range 20 {
		if _, err := mpi.RecordAll(procs, panicking); err == nil || err.Error() != want {
			t.Fatalf("run %d: %v, want %q", i, err, want)
		}
	}
}
