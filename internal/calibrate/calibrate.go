// Package calibrate implements the calibration procedures of Section 5: the
// instantiation of the platform description with pertinent values. The flop
// rate of the hosts is measured by running a small instrumented instance of
// the target application and computing a weighted average over every CPU
// burst of every process (repeated over several runs to smooth runtime
// variations); the network is instantiated from a SKaMPI-style ping-pong —
// the 1-byte value divided by six gives the link latency (half for the
// one-way trip, a third for the two links and one switch of a cluster path)
// — and a best fit of the piece-wise linear MPI model.
package calibrate

import (
	"fmt"

	"tireplay/internal/mpi"
	"tireplay/internal/smpi"
	"tireplay/internal/tau"
	"tireplay/internal/tfr"
)

// LatencyDivisor converts a 1-byte ping-pong round trip into a link
// latency: two for the one-way message, three for the link-switch-link path
// of a compute cluster (Section 5).
const LatencyDivisor = 6

// RankBursts accumulates the CPU-burst observations of one rank from its
// TAU trace: total flops and total time spent in bursts between MPI calls.
type RankBursts struct {
	Flops   float64
	Seconds float64
	Bursts  int
}

// Rate returns the rank's weighted-average flop rate.
func (r RankBursts) Rate() (float64, error) {
	if r.Seconds <= 0 {
		return 0, fmt.Errorf("calibrate: no positive-duration bursts observed")
	}
	return r.Flops / r.Seconds, nil
}

// MeasureRank extracts the burst statistics of one rank from its trace
// files (walkBursts).
func MeasureRank(trcPath, edfPath string) (RankBursts, error) {
	var rb RankBursts
	err := walkBursts(trcPath, edfPath, func(flops, dur float64) {
		rb.Flops += flops
		rb.Seconds += dur
		rb.Bursts++
	})
	if err != nil {
		return RankBursts{}, err
	}
	return rb, nil
}

// walkBursts reads one rank's trace files and calls burst with the volume
// and duration of each CPU burst that has both positive. Burst boundaries
// are the PAPI trigger pairs around MPI states: the time between the
// previous state's exit sample and the current state's entry sample is a
// burst, and the counter difference its volume.
func walkBursts(trcPath, edfPath string, burst func(flops, dur float64)) error {
	var (
		inState     bool
		samples     int
		lastExitT   float64
		lastExitV   float64
		started     bool
		lastSampleT float64
		lastSampleV float64
	)
	cb := tfr.Callbacks{
		EnterState: func(t float64, node, tid, id int) {
			inState = true
			samples = 0
		},
		EventTrigger: func(t float64, node, tid, id int, v float64) {
			if id != tau.EventPAPIFlops || !inState {
				return
			}
			if samples == 0 && started {
				flops := v - lastExitV
				dur := t - lastExitT
				if flops > 0 && dur > 0 {
					burst(flops, dur)
				}
			}
			samples++
			lastSampleT, lastSampleV = t, v
		},
		LeaveState: func(t float64, node, tid, id int) {
			if samples > 0 {
				lastExitT, lastExitV = lastSampleT, lastSampleV
				started = true
			}
			inState = false
		},
	}
	return tfr.ReadFiles(trcPath, edfPath, cb)
}

// MeasureFlopRate measures the calibration flop rate of one acquisition: the
// weighted average rate of each process, averaged over the process set.
func MeasureFlopRate(files *tau.AcquisitionFiles) (perProc []float64, avg float64, err error) {
	n := len(files.TraceFiles)
	perProc = make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		rb, err := MeasureRank(files.TraceFiles[r], files.EventFiles[r])
		if err != nil {
			return nil, 0, fmt.Errorf("calibrate: rank %d: %w", r, err)
		}
		rate, err := rb.Rate()
		if err != nil {
			return nil, 0, fmt.Errorf("calibrate: rank %d: %w", r, err)
		}
		perProc[r] = rate
		sum += rate
	}
	return perProc, sum / float64(n), nil
}

// AverageOverRuns smooths per-run calibration values; the paper repeats the
// procedure five times and averages.
func AverageOverRuns(rates []float64) (float64, error) {
	if len(rates) == 0 {
		return 0, fmt.Errorf("calibrate: no runs")
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates)), nil
}

// PingpongLive measures one-way transfer times on the live engine for each
// message size: the Pingpong_Send_Recv experiment of the SKaMPI benchmark
// suite. reps round trips are averaged per size.
func PingpongLive(cfg mpi.LiveConfig, sizes []float64, reps int) ([]smpi.Sample, error) {
	if reps < 1 {
		reps = 1
	}
	cfg.Procs = 2
	samples := make([]smpi.Sample, len(sizes))
	for i, size := range sizes {
		size := size
		var oneWay float64
		_, err := mpi.RunLive(cfg, func(c mpi.Comm) {
			if c.Rank() == 0 {
				start := c.Now()
				for r := 0; r < reps; r++ {
					c.Send(1, size)
					c.Recv(1)
				}
				oneWay = (c.Now() - start) / float64(reps) / 2
			} else {
				for r := 0; r < reps; r++ {
					c.Recv(0)
					c.Send(0, size)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		samples[i] = smpi.Sample{Bytes: size, Time: oneWay}
	}
	return samples, nil
}

// LatencyFromPingpong applies the divide-by-six rule to a 1-byte ping-pong
// round-trip time.
func LatencyFromPingpong(oneByteRoundTrip float64) float64 {
	return oneByteRoundTrip / LatencyDivisor
}

// DefaultPingpongSizes spans the three protocol segments of the MPI model.
func DefaultPingpongSizes() []float64 {
	var sizes []float64
	for s := 1.0; s <= 4*1024*1024; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// FitNetwork runs the full network calibration: ping-pong, latency rule and
// piece-wise linear best fit, returning the fitted model together with the
// derived base latency. bandwidth is the nominal link bandwidth (the paper
// uses the link's nameplate value).
func FitNetwork(cfg mpi.LiveConfig, bandwidth float64) (*smpi.Model, float64, error) {
	samples, err := PingpongLive(cfg, DefaultPingpongSizes(), 3)
	if err != nil {
		return nil, 0, err
	}
	oneByte := samples[0].Time * 2 // back to round trip
	latency := LatencyFromPingpong(oneByte)
	model, err := smpi.Fit(samples, []float64{1024, 64 * 1024}, latency, bandwidth)
	if err != nil {
		return nil, 0, err
	}
	return model, latency, nil
}
