package replay

import (
	"fmt"
	"runtime"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/synth"
	"tireplay/internal/trace"
)

// largeWorldGen fits LU class S once and truncates the per-segment repeat
// counts so one op replays a single iteration sweep per world — large
// enough to exercise every layer (p2p stencil, collectives, waits), small
// enough that 16k ranks stay benchable.
func largeWorldGen(b testing.TB, world int) *synth.Gen {
	b.Helper()
	perRank, err := npb.RecordAll("lu", "S", 16)
	if err != nil {
		b.Fatal(err)
	}
	m, err := synth.Fit(perRank)
	if err != nil {
		b.Fatal(err)
	}
	for i := range m.Phases {
		if s := m.Phases[i].Seg; s != nil && s.Reps > 1 {
			s.Reps = 1
		}
	}
	g, err := synth.NewGen(m, synth.Spec{World: world, Law: synth.StrongLaw})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// rankGenSource adapts a synth streaming cursor to the replay Source
// interface, so large worlds replay without materialising trace files.
type rankGenSource struct{ rg *synth.RankGen }

func (s rankGenSource) Next() (trace.Action, bool, error) { return s.rg.Next() }

// BenchmarkLargeWorldReplay replays synthetic LU worlds of 1k, 4k and 16k
// ranks on a dragonfly:8x16x8 (1024 hosts, ranks folded round-robin) —
// the tentpole scenario of "replay worlds nobody recorded". Alongside
// ns/op it reports bytes_per_rank: the per-rank setup allocation
// footprint, which must stay flat as the world grows (the gated
// rank_flatness floor is bpr(1k)/bpr(16k), so any O(world) per-rank
// state — mailbox tables, sink buckets — shows up as a
// drop below 1/16th-ish flatness, not as noise).
func BenchmarkLargeWorldReplay(b *testing.B) {
	// Sub-benchmarks run in declaration order, so the 1k measurement is
	// in scope when the larger worlds report their flatness ratio.
	var bpr1k float64
	for _, world := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("ranks=%d", world), func(b *testing.B) {
			g := largeWorldGen(b, world)
			topo, err := platform.ParseTopo("dragonfly:8x16x8")
			if err != nil {
				b.Fatal(err)
			}
			hosts := topo.HostNames()
			fold := (world + len(hosts) - 1) / len(hosts)
			var bytesPerRank, actions float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld, err := topo.Build()
				if err != nil {
					b.Fatal(err)
				}
				depl, err := platform.RoundRobin(bld.HostNames, world, fold)
				if err != nil {
					b.Fatal(err)
				}
				sources := make([]Source, world)
				for r := 0; r < world; r++ {
					rg, err := g.Rank(r)
					if err != nil {
						b.Fatal(err)
					}
					sources[r] = rankGenSource{rg}
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				res, err := Run(bld, depl, Config{}, sources)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if err != nil {
					b.Fatal(err)
				}
				if res.SimulatedTime <= 0 {
					b.Fatalf("non-positive makespan %g", res.SimulatedTime)
				}
				bytesPerRank = float64(after.TotalAlloc-before.TotalAlloc) / float64(world)
				actions = float64(res.Actions)
				b.StartTimer()
			}
			b.ReportMetric(bytesPerRank, "bytes_per_rank")
			b.ReportMetric(actions, "actions/op")
			if world == 1024 {
				bpr1k = bytesPerRank
			} else if bpr1k > 0 && bytesPerRank > 0 {
				// rank_flatness = bpr(1k)/bpr(world): 1.0 is perfectly
				// flat per-rank setup cost; O(world) state drags it
				// toward zero. Gated in CI at 0.8 for the 16k world.
				b.ReportMetric(bpr1k/bytesPerRank, "rank_flatness")
			}
		})
	}
}
