package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"tireplay/internal/metrics"
	"tireplay/internal/units"
)

// WriteJSON renders the sweep result as indented JSON: one record per
// scenario in expansion order, with the makespan, action count and (when
// collected) the per-process profile rows.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// metricsRow is one record of WriteMetricsJSON: the scenario's identity,
// makespan and metrics report, with everything nondeterministic (host wall
// time) excluded.
type metricsRow struct {
	Name          string          `json:"name"`
	SimulatedTime float64         `json:"simulated_time"`
	Err           string          `json:"err,omitempty"`
	Metrics       *metrics.Report `json:"metrics,omitempty"`
}

// WriteMetricsJSON renders only the deterministic metrics view of the
// sweep: scenario name, simulated time and the POP metrics report. Unlike
// WriteJSON it carries no wall-clock fields, so the same sweep serialises
// byte-identically at any worker count — the CI metrics-determinism gate
// diffs this output between workers=1 and workers=nproc.
func (r *Result) WriteMetricsJSON(w io.Writer) error {
	rows := make([]metricsRow, len(r.Scenarios))
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		rows[i] = metricsRow{Name: s.Name, SimulatedTime: s.SimulatedTime,
			Err: s.Err, Metrics: s.Metrics}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// RenderTable prints the per-scenario makespan table, with each scenario's
// speedup relative to the first (the conventional "current platform"
// baseline of a what-if study). When the first scenario failed or was
// cancelled there is no baseline, and the speedup column prints "-" rather
// than silently re-basing on some other scenario.
func (r *Result) RenderTable(w io.Writer) {
	// Resilience, prefix-reuse and metrics columns only appear when some
	// scenario carries them, so plain sweeps render unchanged.
	resilient, forked, metered := false, false, false
	for i := range r.Scenarios {
		if r.Scenarios[i].Resilience != nil {
			resilient = true
		}
		if r.Scenarios[i].Forked {
			forked = true
		}
		if r.Scenarios[i].Metrics != nil {
			metered = true
		}
	}
	fmt.Fprintf(w, "%-40s | %12s | %8s | %8s",
		"scenario", "predicted", "speedup", "actions")
	if metered {
		fmt.Fprintf(w, " | %6s %6s %6s %6s %6s",
			"parEff", "ldBal", "commE", "serE", "trfE")
	}
	if forked {
		fmt.Fprintf(w, " | %10s", "prefix")
	}
	if resilient {
		fmt.Fprintf(w, " | %12s | %10s | %10s | %5s",
			"fault-free", "wasted", "recomputed", "fails")
	}
	fmt.Fprintln(w)
	var baseline float64
	if len(r.Scenarios) > 0 && r.Scenarios[0].Err == "" {
		baseline = r.Scenarios[0].SimulatedTime
	}
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		if s.Err != "" {
			fmt.Fprintf(w, "%-40s | %s\n", s.Name, s.Err)
			continue
		}
		speedup := "-"
		if s.SimulatedTime > 0 && baseline > 0 {
			speedup = fmt.Sprintf("%7.2fx", baseline/s.SimulatedTime)
		}
		fmt.Fprintf(w, "%-40s | %12s | %8s | %8d",
			s.Name, units.FormatSeconds(s.SimulatedTime), speedup, s.Actions)
		if metered {
			if m := s.Metrics; m != nil {
				e := m.Summary
				fmt.Fprintf(w, " | %6.3f %6.3f %6.3f %6.3f %6.3f",
					e.ParallelEff, e.LoadBalance, e.CommEff, e.SerEff, e.TransferEff)
			} else {
				fmt.Fprintf(w, " | %6s %6s %6s %6s %6s", "-", "-", "-", "-", "-")
			}
		}
		if forked {
			if s.Forked {
				fmt.Fprintf(w, " | %10d", s.PrefixActions)
			} else {
				fmt.Fprintf(w, " | %10s", "-")
			}
		}
		if resilient {
			if res := s.Resilience; res != nil {
				fmt.Fprintf(w, " | %12s | %10s | %10s | %5d",
					units.FormatSeconds(res.FaultFree), units.FormatSeconds(res.Wasted),
					units.FormatSeconds(res.Recomputed), res.Failures)
			} else {
				fmt.Fprintf(w, " | %12s | %10s | %10s | %5s", "-", "-", "-", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
