package simx

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// buildRouterKernel populates k with a small two-"cluster" platform: hosts
// a0,a1 behind backbone A, hosts b0,b1 behind backbone B, a wan link between
// them, and full pairwise routes. Routes are added through k.AddRoute, so
// they land in whatever router is installed; the declared links are
// returned per (src, dst) pair.
func buildRouterKernel(k *Kernel) map[[2]string][]*Link {
	hosts := []string{"a0", "a1", "b0", "b1"}
	up := make(map[string]*Link)
	for _, h := range hosts {
		k.AddHost(h, 1e9, 1)
		up[h] = k.AddLink(h+"_up", 1.25e8, 1e-5)
	}
	bbA := k.AddLink("bbA", 1.25e9, 1e-5)
	bbB := k.AddLink("bbB", 1.25e9, 1e-5)
	wan := k.AddLink("wan", 1.25e9, 1e-3)
	bb := func(h string) *Link {
		if h[0] == 'a' {
			return bbA
		}
		return bbB
	}
	declared := make(map[[2]string][]*Link)
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			links := []*Link{up[s], bb(s), wan, bb(d), up[d]}
			if s[0] == d[0] {
				links = []*Link{up[s], bb(s), up[d]}
			}
			k.AddRoute(s, d, links)
			declared[[2]string{s, d}] = links
		}
	}
	return declared
}

// TestTableRouterMatchesDeclaredRoutes pins the dense pair-keyed default
// table: every pair resolves to exactly the links AddRoute declared for it,
// in order, with their summed latency, and a simulation routed through it
// sees the declared bottleneck.
func TestTableRouterMatchesDeclaredRoutes(t *testing.T) {
	k := New()
	declared := buildRouterKernel(k)
	if len(declared) != 12 {
		t.Fatalf("%d declared routes, want 12", len(declared))
	}
	for pair, links := range declared {
		r := k.Router().Route(k.Host(pair[0]), k.Host(pair[1]))
		if r == nil {
			t.Fatalf("%s->%s: route missing", pair[0], pair[1])
		}
		if !slices.Equal(r.Links, links) {
			t.Fatalf("%s->%s: %d links resolved, %d declared", pair[0], pair[1], len(r.Links), len(links))
		}
		if want := NewRoute(links).Latency; r.Latency != want {
			t.Fatalf("%s->%s: latency %g != %g", pair[0], pair[1], r.Latency, want)
		}
	}

	// a0 -> b1 crosses both 1.25e8 uplinks and the 1e-3 wan: latency
	// 1e-5 + 1e-5 + 1e-3 + 1e-5 + 1e-5, then 5e6 bytes at 1.25e8.
	mb0 := k.NewMailbox()
	k.Spawn("s0", k.Host("a0"), func(p *Proc) { p.Send(mb0, 5e6) })
	k.Spawn("r0", k.Host("b1"), func(p *Proc) { p.Recv(mb0) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := NewRoute(declared[[2]string{"a0", "b1"}]).Latency + 5e6/1.25e8; ulpsApart(end, want) > 4 {
		t.Fatalf("makespan %v, want %v", end, want)
	}
}

// TestAddRouteRejectsNonAdderRouter: a router without explicit-route support
// must make AddRoute panic instead of silently dropping the route.
// TestAppendRouteLinksNumbering pins the route walk's dense link numbering:
// declared links by declaration index in route order, a coinciding pair as
// the source host's loopback after every declared link.
func TestAppendRouteLinksNumbering(t *testing.T) {
	k := New()
	buildRouterKernel(k)
	cases := []struct {
		src, dst string
		want     []int32
	}{
		{"a0", "b1", []int32{0, 4, 6, 5, 3}}, // a0_up bbA wan bbB b1_up
		{"b0", "b1", []int32{2, 5, 3}},
		{"a1", "a1", []int32{7 + 1}}, // Links() + a1's ID
	}
	ids := []int32{-9} // appended to, not overwritten
	for _, tc := range cases {
		got := k.AppendRouteLinks(k.Host(tc.src), k.Host(tc.dst), ids[:1])
		if want := append([]int32{-9}, tc.want...); !slices.Equal(got, want) {
			t.Errorf("%s->%s: %v, want %v", tc.src, tc.dst, got, want)
		}
	}
	// The index lives in the padding after Sharing: the solver walks links
	// on every reshare, so the struct must not grow.
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Link{}) != 88 {
		t.Errorf("Link is %d bytes, want 88", unsafe.Sizeof(Link{}))
	}
}

func TestAddRouteRejectsNonAdderRouter(t *testing.T) {
	k := New()
	k.AddHost("a", 1e9, 1)
	k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1e8, 1e-5)
	k.SetRouter(routeFunc(func(src, dst *Host) *Route { return nil }))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding a route to a non-adder router")
		}
	}()
	k.AddRoute("a", "b", []*Link{l})
}

// routeFunc adapts a function to the Router interface.
type routeFunc func(src, dst *Host) *Route

func (f routeFunc) Route(src, dst *Host) *Route { return f(src, dst) }

// TestComputedRouterResolution drives a transfer through a router that
// composes the route on demand and checks the kernel caches the resolution
// (the router is consulted once per pair).
func TestComputedRouterResolution(t *testing.T) {
	k := New()
	mb := k.NewMailbox()
	a := k.AddHost("a", 1e9, 1)
	b := k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1.25e8, 2e-5)
	calls := 0
	k.SetRouter(routeFunc(func(src, dst *Host) *Route {
		calls++
		return NewRoute([]*Link{l})
	}))
	if a.ID() == b.ID() {
		t.Fatalf("dense host ids collide: %d", a.ID())
	}
	k.Spawn("s", a, func(p *Proc) {
		p.Send(mb, 1e6)
		p.Send(mb, 1e6)
	})
	k.Spawn("r", b, func(p *Proc) { p.Recv(mb); p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (2e-5 + 1e6/1.25e8)
	if !almost(end, want) {
		t.Fatalf("makespan %g, want %g", end, want)
	}
	if calls != 1 {
		t.Fatalf("router consulted %d times for one pair, want 1 (cached)", calls)
	}
}

// TestFatpipeSharing checks the sharing-policy axis of the max-min model:
// two concurrent flows over a shared link halve its bandwidth, while the
// same two flows over a fatpipe each progress at the full rate.
func TestFatpipeSharing(t *testing.T) {
	const bw, lat, bytes = 1e8, 1e-5, 1e6
	for _, tc := range []struct {
		sharing Sharing
		want    float64
	}{
		{SharingShared, lat + 2*bytes/bw}, // half bandwidth each
		{SharingFatpipe, lat + bytes/bw},  // full bandwidth each
	} {
		k := New()
		mb0, mb1 := k.NewMailbox(), k.NewMailbox()
		k.AddHost("s0", 1e9, 1)
		k.AddHost("s1", 1e9, 1)
		k.AddHost("d0", 1e9, 1)
		k.AddHost("d1", 1e9, 1)
		l := k.AddLink("fabric", bw, lat)
		l.Sharing = tc.sharing
		k.AddRoute("s0", "d0", []*Link{l})
		k.AddRoute("s1", "d1", []*Link{l})
		k.Spawn("p0", k.Host("s0"), func(p *Proc) { p.Send(mb0, bytes) })
		k.Spawn("p1", k.Host("d0"), func(p *Proc) { p.Recv(mb0) })
		k.Spawn("p2", k.Host("s1"), func(p *Proc) { p.Send(mb1, bytes) })
		k.Spawn("p3", k.Host("d1"), func(p *Proc) { p.Recv(mb1) })
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !almost(end, tc.want) {
			t.Fatalf("sharing=%d: makespan %g, want %g", tc.sharing, end, tc.want)
		}
	}
}

// TestFatpipeMixedPath: a flow crossing a fatpipe and a narrower shared link
// is constrained by the shared link alone; the fatpipe never becomes the
// bottleneck for contending flows.
func TestFatpipeMixedPath(t *testing.T) {
	const lat = 1e-5
	k := New()
	mbA, mbC := k.NewMailbox(), k.NewMailbox()
	for i := 0; i < 4; i++ {
		k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1)
	}
	fat := k.AddLink("fat", 1e9, lat)
	fat.Sharing = SharingFatpipe
	narrow0 := k.AddLink("n0", 1e8, lat)
	narrow1 := k.AddLink("n1", 1e8, lat)
	k.AddRoute("h0", "h1", []*Link{narrow0, fat})
	k.AddRoute("h2", "h3", []*Link{narrow1, fat})
	k.Spawn("a", k.Host("h0"), func(p *Proc) { p.Send(mbA, 1e6) })
	k.Spawn("b", k.Host("h1"), func(p *Proc) { p.Recv(mbA) })
	k.Spawn("c", k.Host("h2"), func(p *Proc) { p.Send(mbC, 1e6) })
	k.Spawn("d", k.Host("h3"), func(p *Proc) { p.Recv(mbC) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both flows run concurrently at their private narrow-link rate: the
	// shared fatpipe does not split its 1e9 between them.
	want := 2*lat + 1e6/1e8
	if !almost(end, want) {
		t.Fatalf("makespan %g, want %g (fatpipe must not contend)", end, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12+1e-9*b
}
