package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// declaration is the part of BENCHMARK.json the program checks itself
// against: the workloads, and the metrics with their units and, for the
// end-to-end ones, their regression bounds.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &declaration{}
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// repeatable is the spread within which an end-to-end metric counts as
// repeating across runs of the same code; one that does not belongs with
// the per-layer metrics.
const repeatable = 0.10

// suite runs every workload n rounds, interleaved (lu-sweep, cg-coll,
// synth-16k, serve-mixed, lu-sweep, ...) so that noise from other tenants
// spreads over all of them. Round i uses seed+i, as separate runs of the
// benchmark do. It then prints each metric's median, quartiles, sample count
// and spread (interquartile distance over median), flagging end-to-end
// metrics whose spread exceeds their declared bound or a tenth.
func suite(e *env, n int, opt options) (*result, error) {
	if opt.update && n != 1 {
		return nil, fmt.Errorf("-update runs one round")
	}
	decl, err := readDeclaration(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bound := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bound[m.Name] = m.Bound
	}
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}

	total := &result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string]map[string][]float64{}
	for round := 0; round < n; round++ {
		for i := range workloads {
			w := &workloads[i]
			re := *e
			re.seed = e.seed + uint64(round)
			fmt.Printf("== %s seed %d (round %d of %d)\n", w.name, re.seed, round+1, n)
			res, err := runOne(&re, w, opt)
			if err != nil {
				return nil, err
			}
			fmt.Println(w.name, mustJSON(res))
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				vals[w.name][k] = append(vals[w.name][k], m.Value)
			}
		}
	}

	fmt.Printf("\n%-12s %-30s %14s %14s %14s %3s %7s %6s\n",
		"workload", "metric", "median", "q1", "q3", "n", "spread", "bound")
	for _, w := range workloads {
		for _, d := range defs {
			xs := vals[w.name][d.name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			var flags []string
			if b, ok := bound[d.name]; ok {
				if d.name != "setup_s" && sp > b {
					flags = append(flags, "SPREAD ABOVE BOUND")
				}
				if sp > repeatable {
					flags = append(flags, "does not repeat within a tenth")
				}
			}
			fmt.Printf("%-12s %-30s %14.6g %14.6g %14.6g %3d %7.4f %6.3g %s\n",
				w.name, d.name, median(xs), q1, q3, len(xs), sp, bound[d.name], strings.Join(flags, "; "))
			total.Metrics[w.name+"/"+d.name] = metric{median(xs), d.unit}
		}
	}
	return total, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
