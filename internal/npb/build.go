package npb

import (
	"fmt"

	"tireplay/internal/mpi"
	"tireplay/internal/trace"
)

// Build constructs an NPB benchmark program by name — the single dispatch
// point shared by the acquisition CLI, tigen's ground-truth mode and the
// differential tests.
func Build(app, class string, procs int) (mpi.Program, error) {
	switch app {
	case "lu":
		c, err := ClassByName(class)
		if err != nil {
			return nil, err
		}
		return LU(LUConfig{Class: c, Procs: procs})
	case "cg":
		return CG(CGConfig{ClassName: class, Procs: procs})
	case "ep":
		return EP(EPConfig{ClassName: class, Procs: procs})
	case "mg":
		return MG(MGConfig{ClassName: class, Procs: procs})
	default:
		return nil, fmt.Errorf("npb: unknown app %q (want lu, cg, ep or mg)", app)
	}
}

// RecordAll unrolls every rank of an NPB benchmark through the
// acquisition recorder (mpi.RecordAll), returning the exact per-rank
// time-independent traces the real pipeline would produce.
func RecordAll(app, class string, procs int) ([][]trace.Action, error) {
	prog, err := Build(app, class, procs)
	if err != nil {
		return nil, err
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		return nil, fmt.Errorf("npb: recording %s.%s: %w", app, class, err)
	}
	return perRank, nil
}
