package serve

import (
	"reflect"
	"strings"
	"testing"

	"tireplay/internal/sweep"
)

// gridSpecOf reads a fuzz input as the ten grid axes joined by "|", in the
// order lat|bw|power|fold|hosts|coll|topo|fault|ckpt|world.
func gridSpecOf(s string) sweep.GridSpec {
	var ax [10]string
	copy(ax[:], strings.SplitN(s, "|", len(ax)))
	return sweep.GridSpec{Lat: ax[0], Bw: ax[1], Power: ax[2], Fold: ax[3], Hosts: ax[4],
		Coll: ax[5], Topo: ax[6], Fault: ax[7], Ckpt: ax[8], World: ax[9]}
}

// FuzzSweepKey checks the canonical cache key in both directions: two
// grids share a key exactly when they expand to the same scenarios. A
// shared key for different expansions would serve one request the other's
// rows; different keys for one expansion would re-run a cached question.
// The oracle compares the expansions themselves, not their names, so a
// field Scenario.Name leaves out or a spec String that is not injective
// shows up here.
func FuzzSweepKey(f *testing.F) {
	for _, seed := range [][2]string{
		// Reordered fault clauses parse to one spec.
		{"|||||||host:1@5,bw:0.5@1-2||", "|||||||bw:0.5@1-2,host:1@5||"},
		// Respelled numbers.
		{"1.0,2|0.50||||||||", "1,2.0|0.5||||||||"},
		// Explicit defaults against omitted axes.
		{"", "1|1|1|1||default||none|none|0"},
		// Reversed axis order: the same values expand in the other order,
		// and swapped axes are different cells.
		{"1,2|||||||||", "2,1|||||||||"},
		{"1,2|3,4||||||||", "3,4|1,2||||||||"},
		// A fault host name may hold a newline followed by a whole second
		// scenario name: one cell must not hash like two.
		{"|||||||host:z@1;host:w@5||", "|||||||host:z@1\nlat=1 bw=1 pow=1 fold=1 fault=host:w@5||"},
		// Negative zero times and costs read as zero.
		{"|||||||host:1@-0|30/-0/-0/-0|", "|||||||host:1@0|30|"},
		// Every axis at once.
		{"0.5|2|1|2|4|binomial;auto|torus:2x2,fat-tree:4|none;host:0@1|none;60/5|0",
			"0.5|2.0|1|2|4|binomial;auto|torus:2x2,fat-tree:4|none;host:0@1|none;60/5/0/0|"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ga, errA := gridSpecOf(a).Parse()
		gb, errB := gridSpecOf(b).Parse()
		if errA != nil || errB != nil || ga.Size() > 64 || gb.Size() > 64 {
			t.Skip()
		}
		key := func(g sweep.Grid) string {
			return canonicalSweepKey(&sweepPlan{digest: "sha256:fuzz", platKey: "bordereau:4",
				grid: g, profile: true})
		}
		sameKey := key(ga) == key(gb)
		if sameRows := reflect.DeepEqual(ga.Expand(), gb.Expand()); sameKey != sameRows {
			t.Fatalf("same key %t but same scenarios %t:\n%q\n%q", sameKey, sameRows, a, b)
		}
	})
}
