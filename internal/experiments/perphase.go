package experiments

import (
	"fmt"
	"io"
	"os"

	"tireplay/internal/acquisition"
	"tireplay/internal/calibrate"
	"tireplay/internal/metrics"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/tau"
	"tireplay/internal/trace"
)

// PerPhaseRow compares the paper's single-average calibration with the
// per-burst-class calibration suggested as its accuracy fix (Section 6.4),
// for one instance.
type PerPhaseRow struct {
	Class       string
	Procs       int
	Actual      float64
	AverageCal  float64 // replay with the single average rate
	PerPhaseCal float64 // replay with per-volume-bin rates
	// AverageEff and PerPhaseEff are the POP efficiencies of each replay,
	// computed from the columnar metrics sink attached to it: they show
	// whether a calibration shifts the load-balance/communication split or
	// only rescales compute.
	AverageEff  metrics.Efficiency
	PerPhaseEff metrics.Efficiency
}

func (r PerPhaseRow) errPct(v float64) float64 {
	e := (v - r.Actual) / r.Actual * 100
	if e < 0 {
		return -e
	}
	return e
}

// AverageErrPct is the |error| of the single-average calibration.
func (r PerPhaseRow) AverageErrPct() float64 { return r.errPct(r.AverageCal) }

// PerPhaseErrPct is the |error| of the per-phase calibration.
func (r PerPhaseRow) PerPhaseErrPct() float64 { return r.errPct(r.PerPhaseCal) }

// PerPhaseCalibration runs the ablation over the configured instances.
func PerPhaseCalibration(cfg *Config) ([]PerPhaseRow, error) {
	cfg.setDefaults()
	var rows []PerPhaseRow
	for _, class := range cfg.Classes {
		for _, procs := range cfg.Procs {
			prog, err := npb.LU(npb.LUConfig{Class: class, Procs: procs})
			if err != nil {
				return nil, err
			}
			camp := &acquisition.Campaign{
				Procs:            procs,
				Program:          prog,
				OverheadPerEvent: cfg.OverheadPerEvent,
				Rate:             LURateModel(cfg.Seed),
				Network:          TrueNetworkModel(),
			}
			actual, err := camp.ExecutionTime(acquisition.Regular())
			if err != nil {
				return nil, err
			}

			// Calibration acquisition: the same instance family, observed
			// with both estimators over the configured number of runs.
			var avgRuns []float64
			var bucketRuns []*calibrate.BucketRates
			for run := 0; run < cfg.CalibrationRuns; run++ {
				dir, err := os.MkdirTemp("", "tireplay-ppc-")
				if err != nil {
					return nil, err
				}
				calCamp := &acquisition.Campaign{
					Procs:            procs,
					Program:          prog,
					OverheadPerEvent: cfg.OverheadPerEvent,
					Rate:             LURateModel(cfg.Seed + int64(run) + 1),
					Network:          TrueNetworkModel(),
				}
				b, d, err := calCamp.Build(acquisition.Regular())
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
				_, files, err := tau.AcquireSim(dir, b, d,
					mpi.SimConfig{Rate: calCamp.Rate}, cfg.OverheadPerEvent, prog)
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
				_, avg, err := calibrate.MeasureFlopRate(files)
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
				br, err := calibrate.MeasureBucketRates(files)
				os.RemoveAll(dir)
				if err != nil {
					return nil, err
				}
				avgRuns = append(avgRuns, avg)
				bucketRuns = append(bucketRuns, br)
			}
			avgRate, err := calibrate.AverageOverRuns(avgRuns)
			if err != nil {
				return nil, err
			}
			buckets, err := calibrate.MergeBucketRates(bucketRuns)
			if err != nil {
				return nil, err
			}

			// The trace to replay comes from the target acquisition.
			perRank, err := mpi.RecordAll(procs, prog)
			if err != nil {
				return nil, err
			}

			avgTime, avgEff, err := replayWithRates(procs, perRank, avgRate, nil)
			if err != nil {
				return nil, err
			}
			phaseTime, phaseEff, err := replayWithRates(procs, perRank, avgRate, buckets)
			if err != nil {
				return nil, err
			}
			row := PerPhaseRow{Class: class.Name, Procs: procs,
				Actual: actual, AverageCal: avgTime, PerPhaseCal: phaseTime,
				AverageEff: avgEff, PerPhaseEff: phaseEff}
			rows = append(rows, row)
			cfg.progressf("per-phase class %s procs %d: actual %.2fs avg-cal %.2fs (%.1f%%) phase-cal %.2fs (%.1f%%)",
				class.Name, procs, actual, avgTime, row.AverageErrPct(), phaseTime, row.PerPhaseErrPct())
		}
	}
	return rows, nil
}

// replayWithRates replays a trace on a platform calibrated at avgRate and
// reports the predicted makespan together with the replay's POP summary
// efficiencies (from a columnar metrics sink attached as the timed
// tracer); when buckets is non-nil, compute actions are re-timed with
// their bin's calibrated rate instead of the platform average.
func replayWithRates(procs int, perRank [][]trace.Action, avgRate float64,
	buckets *calibrate.BucketRates) (float64, metrics.Efficiency, error) {

	b, err := platform.BuildBordereauCustom(procs, 1, avgRate)
	if err != nil {
		return 0, metrics.Efficiency{}, err
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		return 0, metrics.Efficiency{}, err
	}
	sink := replay.NewMetricsSink()
	cfg := replay.Config{Model: smpi.Default(), TimedTracer: sink}
	if buckets != nil {
		reg := replay.Default()
		reg.Register("compute", func(p *replay.Proc, a trace.Action) error {
			// Duration = volume / bucketRate; expressed as equivalent flops
			// on the avgRate host.
			p.Sim.Execute(a.Volume * avgRate / buckets.Rate(a.Volume))
			return nil
		})
		cfg.Registry = reg
	}
	res, err := replay.RunActions(b, d, cfg, perRank)
	if err != nil {
		return 0, metrics.Efficiency{}, err
	}
	rep := metrics.AnalyzeSink(sink, metrics.Options{Makespan: res.SimulatedTime})
	return res.SimulatedTime, rep.Summary, nil
}

// RenderPerPhase prints the ablation table. Beyond the makespans it shows
// each replay's load balance and communication efficiency, so a
// calibration that merely rescales compute (same LB/commE, different
// makespan) is distinguishable from one that redistributes it.
func RenderPerPhase(w io.Writer, rows []PerPhaseRow) {
	fmt.Fprintln(w, "Ablation (paper §6.4) — single-average vs per-phase flop-rate calibration")
	fmt.Fprintf(w, "%-5s %6s | %10s | %10s %8s %5s %5s | %10s %8s %5s %5s\n",
		"Class", "Procs", "Actual", "Avg cal", "Error", "LB", "commE",
		"Phase cal", "Error", "LB", "commE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %6d | %9.2fs | %9.2fs %7.1f%% %5.2f %5.2f | %9.2fs %7.1f%% %5.2f %5.2f\n",
			r.Class, r.Procs, r.Actual,
			r.AverageCal, r.AverageErrPct(), r.AverageEff.LoadBalance, r.AverageEff.CommEff,
			r.PerPhaseCal, r.PerPhaseErrPct(), r.PerPhaseEff.LoadBalance, r.PerPhaseEff.CommEff)
	}
}
