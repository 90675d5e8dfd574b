package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/smpi"
	"tireplay/internal/synth"
)

// TestRequestPlan pins the input rules Plan owns for tisweep and tiserved
// alike: the default base platform, the grids that need none, the switches
// a request implies, and the errors every front end reports as the
// caller's mistake.
func TestRequestPlan(t *testing.T) {
	var model bytes.Buffer
	if err := luModel(t, npb.ClassS, 16).WriteJSON(&model); err != nil {
		t.Fatal(err)
	}
	off := false
	cases := []struct {
		name     string
		req      Request
		ranks    int
		base     string // canonical base platform; empty: none
		metrics  bool
		windows  int
		fork     bool
		identity bool // the identity MPI model
		err      string
	}{
		{name: "recorded ranks", ranks: 4, base: "bordereau:4x1", fork: true},
		{name: "explicit platform", req: Request{Platform: "bordereau:8"}, ranks: 4,
			base: "bordereau:8x1", fork: true},
		{name: "synthetic world past bordereau folds onto its nodes",
			req:  Request{Grid: GridSpec{World: "192"}, Synth: &SynthSpec{Model: model.Bytes(), Scale: "strong"}},
			base: "bordereau:93x1", fork: true},
		{name: "topology grid", req: Request{Grid: GridSpec{Topo: "fat-tree:4,torus:2x2"}}, ranks: 4, fork: true},
		{name: "topology grid with a platform",
			req:   Request{Platform: "bordereau:4", Grid: GridSpec{Topo: "fat-tree:4"}},
			ranks: 4, err: "platform is ignored when every cell sets a topology"},
		{name: "metrics windows alone", req: Request{MetricsWindows: 3}, ranks: 4,
			base: "bordereau:4x1", metrics: true, windows: 3, fork: true},
		{name: "fork off", req: Request{Fork: &off}, ranks: 4, base: "bordereau:4x1"},
		{name: "no MPI model", req: Request{NoMPIModel: true}, ranks: 4,
			base: "bordereau:4x1", fork: true, identity: true},
		{name: "bad axis", req: Request{Grid: GridSpec{Lat: "fast"}}, ranks: 4, err: "bad grid: sweep: "},
	}
	for _, c := range cases {
		p, err := c.req.Plan(c.ranks)
		if c.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), c.err) {
				t.Errorf("%s: Plan = %v, want an error starting %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		base := ""
		if p.Base != nil {
			base = p.Base.String()
		}
		if base != c.base || p.Metrics != c.metrics || p.MetricsWindows != c.windows || p.Fork != c.fork {
			t.Errorf("%s: base %q metrics %t windows %d fork %t; want %q %t %d %t", c.name,
				base, p.Metrics, p.MetricsWindows, p.Fork, c.base, c.metrics, c.windows, c.fork)
		}
		if (p.Model != nil) != c.identity ||
			c.identity && !reflect.DeepEqual(p.Model.Segments(), smpi.Identity().Segments()) {
			t.Errorf("%s: model %v, want the identity model: %t", c.name, p.Model, c.identity)
		}
		if (p.Synth != nil) != (c.req.Synth != nil) {
			t.Errorf("%s: synth model resolved %t, requested %t", c.name, p.Synth != nil, c.req.Synth != nil)
		}
		if p.Synth != nil && p.SynthSpec.Law != synth.StrongLaw {
			t.Errorf("%s: scaling law %v, want strong", c.name, p.SynthSpec.Law)
		}
	}
}
