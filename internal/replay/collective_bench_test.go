package replay

import (
	"runtime"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// bcastSource synthesises one broadcast round per iteration on the fly, so
// the benchmark input costs no per-action memory.
type bcastSource struct {
	rank int
	n    int
	vol  float64
	i    int
}

func (s *bcastSource) Next() (trace.Action, bool, error) {
	if s.i >= s.n {
		return trace.Action{}, false, nil
	}
	s.i++
	return trace.Action{Proc: s.rank, Type: trace.Bcast, Peer: -1, Volume: s.vol}, true, nil
}

// BenchmarkCollectiveRound measures one full collective round across 32
// ranks — schedule generation and every rendezvous of the decomposition —
// under the linear star and the binomial tree. Like the steady-state
// benchmark it guards the allocation-free invariant: each pair's collective
// mailbox is created by the first collective and reused by every later one,
// so the reported allocs/op must stay 0 and the built-in assertion fails the
// benchmark outright if a round starts allocating.
func BenchmarkCollectiveRound(b *testing.B) {
	const ranks = 32
	for _, alg := range []string{"linear", "binomial"} {
		b.Run("alg="+alg, func(b *testing.B) {
			bld, err := platform.BuildBordereauCustom(ranks, 1, platform.BordereauPower)
			if err != nil {
				b.Fatal(err)
			}
			d, err := platform.RoundRobin(bld.HostNames, ranks, 1)
			if err != nil {
				b.Fatal(err)
			}
			sources := make([]Source, ranks)
			for r := range sources {
				sources[r] = &bcastSource{rank: r, n: b.N, vol: 8192}
			}
			cfg := Config{Model: smpi.Identity(), Collectives: coll.MustParseSpec(alg)}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			res, err := Run(bld, d, cfg, sources)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
			if res.Actions != int64(ranks*b.N) {
				b.Fatalf("replayed %d actions, want %d", res.Actions, ranks*b.N)
			}
			// Beyond the constant setup (spawn, pools and the pair table
			// warming up) a collective round must not allocate. Only
			// meaningful once b.N dwarfs the setup.
			if b.N >= 10000 {
				perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
				if perOp >= 1 {
					b.Fatalf("collective round allocates %.3f allocs/op, want amortised 0", perOp)
				}
			}
		})
	}
}
