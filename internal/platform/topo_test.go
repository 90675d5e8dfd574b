package platform

import (
	"fmt"
	"testing"
)

func TestParseTopoRoundTrip(t *testing.T) {
	for _, s := range []string{"fat-tree:4", "torus:4x4x2", "dragonfly:2x4x2", "torus:3x5"} {
		spec, err := ParseTopo(s)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", s, err)
		}
		if spec.String() != s {
			t.Fatalf("ParseTopo(%q).String() = %q", s, spec.String())
		}
	}
	for _, bad := range []string{
		"", "fat-tree", "fat-tree:3", "fat-tree:0", "fat-tree:4x4",
		"torus:4", "torus:4x1", "torus:2x2x2x2", "dragonfly:2x2",
		"dragonfly:1x2x2", "mesh:4x4", "torus:axb",
		// Host or link counts past the 32-bit host IDs of route keys.
		"fat-tree:4000000", "torus:100000x100000x100000", "dragonfly:100000x2x1",
	} {
		if _, err := ParseTopo(bad); err == nil {
			t.Errorf("ParseTopo(%q): expected error", bad)
		}
	}
}

func TestTopoHostCounts(t *testing.T) {
	cases := []struct {
		spec string
		want int
	}{
		{"fat-tree:2", 2},
		{"fat-tree:4", 16},
		{"fat-tree:8", 128},
		{"torus:4x4", 16},
		{"torus:4x4x2", 32},
		{"dragonfly:2x4x2", 16},
		{"dragonfly:3x2x1", 6},
	}
	for _, c := range cases {
		spec, err := ParseTopo(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.HostCount(); got != c.want {
			t.Errorf("%s: HostCount = %d, want %d", c.spec, got, c.want)
		}
		if names := spec.HostNames(); len(names) != c.want {
			t.Errorf("%s: %d host names", c.spec, len(names))
		}
	}
}

// TestTopoRouteProperties is the generator property suite: on every zoo
// member, every ordered host pair must resolve to a route whose link count
// equals the closed-form hop count, whose latency is hop count times the
// base link latency, and whose resolution is symmetric (equal hops and
// latency both ways; for the fat-tree and dragonfly, the exact reversed
// link sequence).
func TestTopoRouteProperties(t *testing.T) {
	specs := []string{
		"fat-tree:2", "fat-tree:4",
		"torus:3x4", "torus:2x2x3", "torus:4x4",
		"dragonfly:2x2x2", "dragonfly:3x4x2", "dragonfly:2x1x3",
	}
	for _, s := range specs {
		t.Run(s, func(t *testing.T) {
			spec, err := ParseTopo(s)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.withDefaults()
			b, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			k := b.Kernel
			n := spec.HostCount()
			if len(b.HostNames) != n {
				t.Fatalf("built %d hosts, want %d", len(b.HostNames), n)
			}
			exactReverse := spec.Kind != "torus"
			for i := 0; i < n; i++ {
				hi := k.Host(b.HostNames[i])
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					hj := k.Host(b.HostNames[j])
					r := k.Router().Route(hi, hj)
					if r == nil {
						t.Fatalf("no route %d->%d", i, j)
					}
					hops := spec.Hops(i, j)
					if len(r.Links) != hops {
						t.Fatalf("%d->%d: %d links, closed form says %d", i, j, len(r.Links), hops)
					}
					if want := float64(hops) * spec.Lat; !closeEnough(r.Latency, want) {
						t.Fatalf("%d->%d: latency %g, want %d*%g", i, j, r.Latency, hops, spec.Lat)
					}
					if hops != spec.Hops(j, i) {
						t.Fatalf("hops asymmetric: %d->%d=%d, %d->%d=%d",
							i, j, hops, j, i, spec.Hops(j, i))
					}
					if exactReverse {
						rr := k.Router().Route(hj, hi)
						if len(rr.Links) != len(r.Links) {
							t.Fatalf("%d<->%d: reverse resolves differently", i, j)
						}
						for x := range r.Links {
							if rr.Links[len(rr.Links)-1-x] != r.Links[x] {
								t.Fatalf("%d<->%d: reverse is not the mirrored link sequence", i, j)
							}
						}
					}
				}
			}
		})
	}
}

// TestTopoTransferLatency drives a zero-byte message across each topology
// and checks the simulated time equals the closed-form hop latency — the
// composed routes are live in the kernel, not just well-formed.
func TestTopoTransferLatency(t *testing.T) {
	for _, s := range []string{"fat-tree:4", "torus:4x4", "dragonfly:2x4x2"} {
		spec, err := ParseTopo(s)
		if err != nil {
			t.Fatal(err)
		}
		spec = spec.withDefaults()
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := b.Kernel
		src, dst := 0, spec.HostCount()-1
		mb := k.NewMailbox()
		k.Spawn("s", k.Host(b.HostNames[src]), func(p *procAlias) { p.Send(mb, 0) })
		k.Spawn("r", k.Host(b.HostNames[dst]), func(p *procAlias) { p.Recv(mb) })
		end, err := k.Run()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want := float64(spec.Hops(src, dst)) * spec.Lat
		if !closeEnough(end, want) {
			t.Fatalf("%s: transfer latency %g, want %g", s, end, want)
		}
	}
}

// TestFatTreeCrossbarIsFatpipe: two same-edge transfers cross the same edge
// crossbar but must not contend on it (each is bounded by its own host
// links), while two transfers out of the same host do halve the shared host
// link.
func TestFatTreeCrossbarIsFatpipe(t *testing.T) {
	spec := TopoSpec{Kind: "fat-tree", K: 4}.withDefaults()
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := b.Kernel
	// Hosts 0 and 1 share edge 0; their partner is on no shared host link.
	const bytes = 1e6
	mbA, mbB := k.NewMailbox(), k.NewMailbox()
	k.Spawn("s0", k.Host(b.HostNames[0]), func(p *procAlias) { p.Send(mbA, bytes) })
	k.Spawn("r0", k.Host(b.HostNames[1]), func(p *procAlias) { p.Recv(mbA) })
	k.Spawn("s1", k.Host(b.HostNames[1]), func(p *procAlias) { p.Send(mbB, bytes) })
	k.Spawn("r1", k.Host(b.HostNames[0]), func(p *procAlias) { p.Recv(mbB) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The two opposite-direction transfers share every link of the 3-hop
	// route; only the shared host links split bandwidth, the fatpipe
	// crossbar does not add a second halving.
	want := 3*spec.Lat + 2*bytes/spec.BW
	if !closeEnough(end, want) {
		t.Fatalf("same-edge pair: %g, want %g", end, want)
	}
}

// TestTopoScaled applies what-if factors to a spec.
func TestTopoScaled(t *testing.T) {
	spec, err := ParseTopo("torus:4x4")
	if err != nil {
		t.Fatal(err)
	}
	sc := spec.Scaled(Scale{Latency: 2, Bandwidth: 0.5, Power: 3})
	def := spec.withDefaults()
	if sc.Lat != 2*def.Lat || sc.BW != 0.5*def.BW || sc.Power != 3*def.Power {
		t.Fatalf("scaled spec = %+v", sc)
	}
	id := spec.Scaled(Scale{})
	if id.Lat != def.Lat || id.BW != def.BW || id.Power != def.Power {
		t.Fatalf("identity scale changed spec: %+v", id)
	}
}

func TestPairIndexDense(t *testing.T) {
	const m = 5
	seen := make(map[int]bool)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			i := pairIndex(a, b, m)
			if i < 0 || i >= m*(m-1)/2 || seen[i] {
				t.Fatalf("pairIndex(%d,%d,%d) = %d (dup or out of range)", a, b, m, i)
			}
			if i != pairIndex(b, a, m) {
				t.Fatalf("pairIndex not symmetric for (%d,%d)", a, b)
			}
			seen[i] = true
		}
	}
}

func ExampleTopoSpec_String() {
	spec, _ := ParseTopo("dragonfly:4x8x4")
	fmt.Println(spec.String(), spec.HostCount())
	// Output: dragonfly:4x8x4 128
}
