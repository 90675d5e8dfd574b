package simx

import (
	"fmt"
	"testing"
)

// benchTopology builds a backbone platform: n hosts, each with a private
// uplink to a shared backbone link, so every cross-host flow crosses three
// links and all flows contend on the backbone.
func benchTopology(n int) *Kernel {
	k := New()
	backbone := k.AddLink("backbone", 1.25e9, 1e-6)
	uplinks := make([]*Link, n)
	for i := 0; i < n; i++ {
		k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1)
		uplinks[i] = k.AddLink(fmt.Sprintf("up%d", i), 1.25e8, 1e-7)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			k.AddRoute(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j),
				[]*Link{uplinks[i], backbone, uplinks[j]})
		}
	}
	return k
}

// benchFlows builds f synthetic flows over a backbone topology of l uplinks:
// flow i crosses uplink[i%l], the backbone, and uplink[(i+1)%l].
func benchFlows(f, l int) ([]*activity, []*Link) {
	backbone := &Link{Name: "backbone", Bandwidth: 1.25e9}
	uplinks := make([]*Link, l)
	for i := range uplinks {
		uplinks[i] = &Link{Name: fmt.Sprintf("up%d", i), Bandwidth: 1.25e8}
	}
	flows := make([]*activity, 0, f)
	for i := 0; i < f; i++ {
		flows = append(flows, &activity{
			kind:     actComm,
			links:    []*Link{uplinks[i%l], backbone, uplinks[(i+1)%l]},
			bwFactor: 1,
		})
	}
	all := append([]*Link{backbone}, uplinks...)
	return flows, all
}

// BenchmarkMaxMinSolve measures one max-min fair solve over a contended
// multi-hop flow set, the operation on the critical path of every
// communication start and finish.
func BenchmarkMaxMinSolve(b *testing.B) {
	for _, size := range []struct{ flows, links int }{
		{8, 4}, {64, 16}, {512, 64},
	} {
		b.Run(fmt.Sprintf("flows=%d", size.flows), func(b *testing.B) {
			flows, _ := benchFlows(size.flows, size.links)
			var s maxMinSolver
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.solve(flows)
			}
		})
	}
}

// BenchmarkKernelReshare measures a full replay-shaped simulation: n
// processes exchanging staggered messages over a shared backbone, so flows
// continuously join and leave the contended set and every transition
// reshapes bandwidth.
func BenchmarkKernelReshare(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) {
			const rounds = 32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := benchTopology(n)
				// inbox[p] carries the ring's messages into p.
				inbox := make([]MailboxID, n)
				for p := range inbox {
					inbox[p] = k.NewMailbox()
				}
				for p := 0; p < n; p++ {
					src, dst := p, (p+1)%n
					k.Spawn(fmt.Sprintf("p%d", p), k.Host(fmt.Sprintf("h%d", src)), func(pr *Proc) {
						for r := 0; r < rounds; r++ {
							c := pr.ISend(inbox[dst], 1e6)
							pr.Recv(inbox[src])
							pr.WaitComm(c)
							pr.Execute(1e6)
						}
					})
				}
				b.StartTimer()
				if _, err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
