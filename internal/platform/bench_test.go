package platform

import (
	"fmt"
	"runtime"
	"testing"

	"tireplay/internal/simx"
)

// benchCluster is a single homogeneous n-host cluster description, the shape
// whose route state the routing refactor moved from O(n²) to O(n).
func benchCluster(n int) *Platform {
	return &Platform{
		Version: "3",
		AS: AS{
			ID: "AS_bench", Routing: "Full",
			Clusters: []Cluster{{
				ID: "bench", Prefix: "n", Radical: FormatRadical(n),
				Power: "1E9", BW: "1.25E8", Lat: "1.67E-5",
			}},
		},
	}
}

// BenchmarkPlatformBuild is the CI memory gate of the computed routing
// layer: instantiating a 1024-host cluster must allocate O(n) route state —
// no per-pair tables. Besides the -benchmem counters that cmd/benchdiff
// gates (any allocs/op increase fails the build), it reports bytes/host so
// a route-memory regression is visible as a per-host cost. The
// "routing=computed" suffix keeps the names of the committed baseline.
func BenchmarkPlatformBuild(b *testing.B) {
	for _, hosts := range []int{1024, 256} {
		b.Run(fmt.Sprintf("hosts=%d/routing=computed", hosts), func(b *testing.B) {
			p := benchCluster(hosts)
			var sink *Build
			b.ReportAllocs()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd, err := Instantiate(p)
				if err != nil {
					b.Fatal(err)
				}
				sink = bd
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if sink == nil || len(sink.HostNames) != hosts {
				b.Fatalf("bad build: %v", sink)
			}
			perHost := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / float64(hosts)
			b.ReportMetric(perHost, "bytes/host")
		})
	}
}

// BenchmarkRouteResolution measures raw router resolution: the zone router
// composes the route on every call here. A replay pays that cost once per
// communicating pair — the kernel caches the resolution under a
// host-pointer key — so it is a per-pair constant, not a per-message one.
func BenchmarkRouteResolution(b *testing.B) {
	b.Run("routing=computed", func(b *testing.B) {
		bd, err := Instantiate(benchCluster(64))
		if err != nil {
			b.Fatal(err)
		}
		k := bd.Kernel
		hosts := make([]*simx.Host, len(bd.HostNames))
		for i, n := range bd.HostNames {
			hosts[i] = k.Host(n)
		}
		r := k.Router()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i*7+1)%len(hosts)]
			if src == dst {
				dst = hosts[(i*7+2)%len(hosts)]
			}
			if r.Route(src, dst) == nil {
				b.Fatal("route missing")
			}
		}
	})
}
