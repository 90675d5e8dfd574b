package calibrate

import (
	"fmt"
	"math"

	"tireplay/internal/tau"
)

// The paper attributes the replay's accuracy gap to using one average flop
// rate although "the flop rate is not constant over the computation of a LU
// benchmark", and suggests acquiring "more information on each computation
// during the calibration step to adapt the flop rate accordingly"
// (Section 6.4). This file implements that refinement: CPU bursts are
// binned by volume — in LU, each SSOR phase has a characteristic burst
// volume, so volume is a workable phase signature — and a rate is
// calibrated per bin.

// VolumeBucket maps a burst volume to its bin: the integer binary order of
// magnitude, so bursts within a factor of two share a bin.
func VolumeBucket(flops float64) int {
	if flops <= 1 {
		return 0
	}
	return int(math.Log2(flops))
}

// BucketRates holds per-bin calibrated rates with the global average as a
// fallback for bins never observed during calibration.
type BucketRates struct {
	Rates   map[int]float64
	Average float64
}

// Rate returns the calibrated rate for a burst of the given volume.
func (b *BucketRates) Rate(flops float64) float64 {
	if r, ok := b.Rates[VolumeBucket(flops)]; ok {
		return r
	}
	return b.Average
}

// MeasureBucketRates calibrates a per-volume-bin flop rate from an
// acquisition, the refinement of MeasureFlopRate suggested by Section 6.4.
func MeasureBucketRates(files *tau.AcquisitionFiles) (*BucketRates, error) {
	flopsAcc := make(map[int]float64)
	timeAcc := make(map[int]float64)
	var totalFlops, totalTime float64
	for r := range files.TraceFiles {
		var rankFlops, rankTime float64
		err := walkBursts(files.TraceFiles[r], files.EventFiles[r], func(flops, dur float64) {
			b := VolumeBucket(flops)
			flopsAcc[b] += flops
			timeAcc[b] += dur
			rankFlops += flops
			rankTime += dur
		})
		if err != nil {
			return nil, fmt.Errorf("calibrate: rank %d: %w", r, err)
		}
		totalFlops += rankFlops
		totalTime += rankTime
	}
	if totalTime <= 0 {
		return nil, fmt.Errorf("calibrate: no positive-duration bursts observed")
	}
	br := &BucketRates{Rates: make(map[int]float64), Average: totalFlops / totalTime}
	for b, f := range flopsAcc {
		if timeAcc[b] > 0 {
			br.Rates[b] = f / timeAcc[b]
		}
	}
	return br, nil
}

// MergeBucketRates averages calibrations from several runs, weighting each
// bin by presence.
func MergeBucketRates(runs []*BucketRates) (*BucketRates, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("calibrate: no runs")
	}
	out := &BucketRates{Rates: make(map[int]float64)}
	counts := make(map[int]int)
	for _, r := range runs {
		out.Average += r.Average
		for b, v := range r.Rates {
			out.Rates[b] += v
			counts[b]++
		}
	}
	out.Average /= float64(len(runs))
	for b := range out.Rates {
		out.Rates[b] /= float64(counts[b])
	}
	return out, nil
}
