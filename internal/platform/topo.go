package platform

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tireplay/internal/simx"
)

// The topology zoo: parameterized generators for the interconnects HPC
// procurement what-ifs actually compare — k-ary fat-trees, 2D/3D tori and
// dragonflies — built directly on the computed routing layer. No generator
// materializes a per-pair route table: the fat-tree is a zone hierarchy
// (zones.go) and the torus and dragonfly install their own computed routers
// that walk the coordinate/minimal path on demand, so a thousand-host
// topology costs O(hosts) route state. Every generator has a closed-form
// hop count (Hops) the property tests pin composed routes against.
//
// Sharing policies follow the hardware: switch crossbars and fabrics are
// fatpipe links (non-blocking: each flow may use the full rate, flows do
// not contend), while host links and inter-switch trunks are shared links
// whose bandwidth the max-min model divides — a trunk aggregating p
// parallel cables gets p times the base bandwidth.

// TopoSpec describes one generated topology. The zero value is invalid;
// construct specs via ParseTopo ("fat-tree:4", "torus:4x4x2",
// "dragonfly:2x4x2") or fill the fields and call Validate.
type TopoSpec struct {
	// Kind is "fat-tree", "torus" or "dragonfly".
	Kind string
	// K is the fat-tree arity: K pods of (K/2)² hosts, K³/4 hosts total.
	K int
	// Dims are the torus dimensions (2 or 3 axes, each ≥ 2), wrap-around.
	Dims []int
	// Groups/Routers/HostsPer size the dragonfly: Groups all-to-all
	// connected groups of Routers all-to-all connected routers carrying
	// HostsPer hosts each.
	Groups, Routers, HostsPer int

	// Power is the per-core flop/s of every host (0 = the bordereau
	// calibration), Cores the per-host core count (0 = 1).
	Power float64
	Cores int
	// BW and Lat are the base link bandwidth and latency every generated
	// link derives from (0 = 1 GbE / the calibrated cluster latency).
	BW  float64
	Lat float64
}

// ParseTopo parses a topology spec: kind ":" parameters, with dimensions
// separated by "x" ("fat-tree:4", "torus:4x4x2", "dragonfly:2x4x2").
func ParseTopo(s string) (TopoSpec, error) {
	var t TopoSpec
	kind, params, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return t, fmt.Errorf("platform: topo spec %q: want kind:params", s)
	}
	t.Kind = strings.ToLower(strings.TrimSpace(kind))
	var dims []int
	for _, p := range strings.Split(params, "x") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return t, fmt.Errorf("platform: topo spec %q: bad parameter %q", s, p)
		}
		dims = append(dims, v)
	}
	switch t.Kind {
	case "fat-tree", "fattree":
		t.Kind = "fat-tree"
		if len(dims) != 1 {
			return t, fmt.Errorf("platform: topo spec %q: fat-tree takes one arity parameter", s)
		}
		t.K = dims[0]
	case "torus":
		t.Dims = dims
	case "dragonfly":
		if len(dims) != 3 {
			return t, fmt.Errorf("platform: topo spec %q: dragonfly takes groups x routers x hosts", s)
		}
		t.Groups, t.Routers, t.HostsPer = dims[0], dims[1], dims[2]
	default:
		return t, fmt.Errorf("platform: unknown topology kind %q (want fat-tree, torus or dragonfly)", kind)
	}
	return t, t.Validate()
}

// String renders the spec back to its ParseTopo form.
func (t TopoSpec) String() string {
	switch t.Kind {
	case "fat-tree":
		return fmt.Sprintf("fat-tree:%d", t.K)
	case "torus":
		parts := make([]string, len(t.Dims))
		for i, d := range t.Dims {
			parts[i] = strconv.Itoa(d)
		}
		return "torus:" + strings.Join(parts, "x")
	case "dragonfly":
		return fmt.Sprintf("dragonfly:%dx%dx%d", t.Groups, t.Routers, t.HostsPer)
	}
	return "topo:?"
}

// MarshalText renders the spec in ParseTopo syntax (sweep JSON reports).
func (t TopoSpec) MarshalText() ([]byte, error) {
	if t.Kind == "" {
		return []byte{}, nil
	}
	return []byte(t.String()), nil
}

// UnmarshalText parses the ParseTopo syntax; empty means no topology.
func (t *TopoSpec) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*t = TopoSpec{}
		return nil
	}
	spec, err := ParseTopo(string(b))
	if err != nil {
		return err
	}
	*t = spec
	return nil
}

// maxTopoCount bounds the hosts and the links a topology generates: simx
// packs host IDs into the 32-bit halves of its route keys.
const maxTopoCount = math.MaxInt32

// Validate checks the structural parameters and that the host and link
// counts fit maxTopoCount.
func (t TopoSpec) Validate() error {
	switch t.Kind {
	case "fat-tree":
		if t.K < 2 || t.K%2 != 0 {
			return fmt.Errorf("platform: fat-tree arity %d must be even and >= 2", t.K)
		}
	case "torus":
		if len(t.Dims) < 2 || len(t.Dims) > 3 {
			return fmt.Errorf("platform: torus wants 2 or 3 dimensions, got %d", len(t.Dims))
		}
		for _, d := range t.Dims {
			if d < 2 {
				return fmt.Errorf("platform: torus dimension %d must be >= 2", d)
			}
		}
	case "dragonfly":
		if t.Groups < 2 || t.Routers < 1 || t.HostsPer < 1 {
			return fmt.Errorf("platform: dragonfly %dx%dx%d needs >= 2 groups and >= 1 router/host per level",
				t.Groups, t.Routers, t.HostsPer)
		}
	default:
		return fmt.Errorf("platform: unknown topology kind %q", t.Kind)
	}
	if hosts, links := t.counts(); hosts > maxTopoCount || links > maxTopoCount {
		return fmt.Errorf("platform: topology %s generates more than %d hosts or links", t, maxTopoCount)
	}
	return nil
}

// counts returns the numbers of hosts and links the spec generates, in
// float64: no product overflows, and every count below 2^53 is exact.
func (t TopoSpec) counts() (hosts, links float64) {
	switch t.Kind {
	case "fat-tree":
		k := float64(t.K)
		hosts = k * k * k / 4
		// The core; a fabric and a trunk per pod; a crossbar and a trunk
		// per edge switch; a link per host.
		links = 1 + 2*k + k*k + hosts
	case "torus":
		hosts = 1
		for _, d := range t.Dims {
			hosts *= float64(d)
		}
		// A host link and a link per axis for every host.
		links = hosts * float64(1+len(t.Dims))
	case "dragonfly":
		g, r := float64(t.Groups), float64(t.Routers)
		hosts = g * r * float64(t.HostsPer)
		// A crossbar per router, local links between the routers of a
		// group, global links between groups, a link per host.
		links = g*r + g*r*(r-1)/2 + g*(g-1)/2 + hosts
	}
	return hosts, links
}

// HostCount returns the number of hosts the spec generates.
func (t TopoSpec) HostCount() int {
	switch t.Kind {
	case "fat-tree":
		return t.K * t.K * t.K / 4
	case "torus":
		n := 1
		for _, d := range t.Dims {
			n *= d
		}
		return n
	case "dragonfly":
		return t.Groups * t.Routers * t.HostsPer
	}
	return 0
}

// HostNames lists the generated host names in index order, without building
// the platform — the sweep engine derives deployments from it.
func (t TopoSpec) HostNames() []string {
	n := t.HostCount()
	names := make([]string, n)
	prefix := t.hostPrefix()
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

func (t TopoSpec) hostPrefix() string {
	switch t.Kind {
	case "fat-tree":
		return "ft-"
	case "torus":
		return "torus-"
	case "dragonfly":
		return "dfly-"
	}
	return "host-"
}

// Scaled returns a copy with the what-if factors applied (0 and 1 are
// identity), resolving unset quantities to their defaults first so a scaled
// spec is self-contained — the sweep axes compose with the topology axis
// exactly as they do with a description's Scaled.
func (t TopoSpec) Scaled(s Scale) TopoSpec {
	out := t.withDefaults()
	if s.Latency != 0 && s.Latency != 1 {
		out.Lat *= s.Latency
	}
	if s.Bandwidth != 0 && s.Bandwidth != 1 {
		out.BW *= s.Bandwidth
	}
	if s.Power != 0 && s.Power != 1 {
		out.Power *= s.Power
	}
	return out
}

func (t TopoSpec) withDefaults() TopoSpec {
	if t.Power == 0 {
		t.Power = BordereauPower
	}
	if t.Cores < 1 {
		t.Cores = 1
	}
	if t.BW == 0 {
		t.BW = GigaEthernetBw
	}
	if t.Lat == 0 {
		t.Lat = ClusterLatency
	}
	return t
}

// Hops returns the closed-form link count of the route between host indices
// i and j (host links included); the composed route's latency is exactly
// Hops(i,j) * Lat. Hops(i,i) is 0 (loopback).
func (t TopoSpec) Hops(i, j int) int {
	if i == j {
		return 0
	}
	switch t.Kind {
	case "fat-tree":
		half := t.K / 2
		edgeI, edgeJ := i/half, j/half
		if edgeI == edgeJ {
			return 3 // host, edge crossbar, host
		}
		if edgeI/half == edgeJ/half {
			return 7 // + edge trunks and the pod fabric
		}
		return 11 // + pod trunks and the core fabric
	case "torus":
		hops := 2 // the two host links
		ci, cj := t.torusCoords(i), t.torusCoords(j)
		for d, s := range t.Dims {
			delta := cj[d] - ci[d]
			if delta < 0 {
				delta += s
			}
			if s-delta < delta {
				delta = s - delta
			}
			hops += delta
		}
		return hops
	case "dragonfly":
		gi, ri := i/(t.Routers*t.HostsPer), (i/t.HostsPer)%t.Routers
		gj, rj := j/(t.Routers*t.HostsPer), (j/t.HostsPer)%t.Routers
		if gi == gj {
			if ri == rj {
				return 3 // host, router fabric, host
			}
			return 5 // + the local link and the peer fabric
		}
		hops := 5 // hosts, both router fabrics, the global link
		if ri != gj%t.Routers {
			hops += 2 // local hop to the gateway + its fabric
		}
		if rj != gi%t.Routers {
			hops += 2
		}
		return hops
	}
	return 0
}

func (t TopoSpec) torusCoords(i int) []int { return mixedRadixCoords(i, t.Dims) }

// mixedRadixCoords decodes a host index into per-dimension torus
// coordinates, first dimension fastest — the one layout both the hop-count
// oracle and the router must agree on.
func mixedRadixCoords(i int, dims []int) []int {
	c := make([]int, len(dims))
	for d, s := range dims {
		c[d] = i % s
		i /= s
	}
	return c
}

// Build instantiates the topology on a fresh kernel with computed routing.
func (t TopoSpec) Build() (*Build, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t = t.withDefaults()
	switch t.Kind {
	case "fat-tree":
		return t.buildFatTree()
	case "torus":
		return t.buildTorus()
	case "dragonfly":
		return t.buildDragonfly()
	}
	return nil, fmt.Errorf("platform: unknown topology kind %q", t.Kind)
}

// buildFatTree lays a K-ary fat-tree out as a three-level zone hierarchy:
// hosts behind edge-switch zones, edges inside pod zones, pods under the
// core. Crossbars/fabrics are fatpipe links; the trunks between levels are
// shared links aggregating the parallel cables of the real tree (K/2 per
// edge uplink, (K/2)² per pod uplink), which keeps full bisection bandwidth
// while the host links bound any single flow at the base rate.
func (t TopoSpec) buildFatTree() (*Build, error) {
	b := newBuild()
	k := b.Kernel
	half := t.K / 2
	hostsPerEdge, edgesPerPod := half, half
	core := k.AddLink("ft_core", t.BW*float64(half*half), t.Lat)
	core.Sharing = simx.SharingFatpipe
	root := b.zones.NewZone("ft", nil, core)
	idx := 0
	for p := 0; p < t.K; p++ {
		podFab := k.AddLink(fmt.Sprintf("ft_pod%d_fabric", p), t.BW*float64(half), t.Lat)
		podFab.Sharing = simx.SharingFatpipe
		podTrunk := k.AddLink(fmt.Sprintf("ft_pod%d_trunk", p), t.BW*float64(half*half), t.Lat)
		pod := b.zones.NewZone(fmt.Sprintf("ft_pod%d", p), root, podFab, podTrunk)
		for e := 0; e < edgesPerPod; e++ {
			xbar := k.AddLink(fmt.Sprintf("ft_edge%d_%d_xbar", p, e), t.BW, t.Lat)
			xbar.Sharing = simx.SharingFatpipe
			trunk := k.AddLink(fmt.Sprintf("ft_edge%d_%d_trunk", p, e), t.BW*float64(half), t.Lat)
			edge := b.zones.NewZone(fmt.Sprintf("ft_edge%d_%d", p, e), pod, xbar, trunk)
			for hI := 0; hI < hostsPerEdge; hI++ {
				name := fmt.Sprintf("%s%d", t.hostPrefix(), idx)
				h := k.AddHost(name, t.Power, t.Cores)
				hl := k.AddLink(fmt.Sprintf("ft_host%d", idx), t.BW, t.Lat)
				b.zones.Attach(h, edge, hl)
				b.HostNames = append(b.HostNames, name)
				idx++
			}
		}
	}
	b.byCluster["ft"] = b.HostNames
	return b, nil
}

// torusRouter composes dimension-ordered wrap-around routes on demand: the
// route climbs each dimension in turn along the shorter direction (forward
// on ties). Route state is the link arrays — O(hosts·dims) — and the kernel
// caches each composed pair on first use.
type torusRouter struct {
	dims     []int
	hostLink []*simx.Link
	// axis[d][i] is host i's +1-direction link in dimension d.
	axis [][]*simx.Link
}

func (t *torusRouter) coords(i int) []int { return mixedRadixCoords(i, t.dims) }

func (t *torusRouter) index(c []int) int {
	i, mul := 0, 1
	for d, s := range t.dims {
		i += c[d] * mul
		mul *= s
	}
	return i
}

func (t *torusRouter) Route(src, dst *simx.Host) *simx.Route {
	si, di := src.ID(), dst.ID()
	if si >= len(t.hostLink) || di >= len(t.hostLink) {
		return nil
	}
	links := []*simx.Link{t.hostLink[si]}
	cur := t.coords(si)
	want := t.coords(di)
	for d, s := range t.dims {
		delta := want[d] - cur[d]
		if delta < 0 {
			delta += s
		}
		if back := s - delta; delta <= back {
			for step := 0; step < delta; step++ {
				links = append(links, t.axis[d][t.index(cur)])
				cur[d] = (cur[d] + 1) % s
			}
		} else {
			for step := 0; step < back; step++ {
				cur[d] = (cur[d] - 1 + s) % s
				links = append(links, t.axis[d][t.index(cur)])
			}
		}
	}
	links = append(links, t.hostLink[di])
	return simx.NewRoute(links)
}

// buildTorus creates the grid hosts, one host link each, and the per-axis
// neighbor links, then installs the dimension-ordered computed router.
func (t TopoSpec) buildTorus() (*Build, error) {
	b := &Build{Kernel: simx.New(), byCluster: make(map[string][]string)}
	k := b.Kernel
	n := t.HostCount()
	tr := &torusRouter{dims: t.Dims, hostLink: make([]*simx.Link, n),
		axis: make([][]*simx.Link, len(t.Dims))}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", t.hostPrefix(), i)
		k.AddHost(name, t.Power, t.Cores)
		tr.hostLink[i] = k.AddLink(fmt.Sprintf("torus_host%d", i), t.BW, t.Lat)
		b.HostNames = append(b.HostNames, name)
	}
	for d := range t.Dims {
		tr.axis[d] = make([]*simx.Link, n)
		for i := 0; i < n; i++ {
			tr.axis[d][i] = k.AddLink(fmt.Sprintf("torus_d%d_%d", d, i), t.BW, t.Lat)
		}
	}
	k.SetRouter(tr)
	b.byCluster["torus"] = b.HostNames
	return b, nil
}

// dragonflyRouter composes minimal routes on demand: host link, source
// router fabric, at most one local hop to the gateway router, the global
// link between the groups, at most one local hop from the peer gateway, the
// destination fabric and host link. The gateway of group a toward group b
// is router b mod R, so global traffic spreads deterministically over the
// routers.
type dragonflyRouter struct {
	groups, routers, hostsPer int
	hostLink                  []*simx.Link
	fabric                    [][]*simx.Link // [group][router]
	local                     [][]*simx.Link // [group][pair index a<b]
	global                    []*simx.Link   // [pair index a<b]
}

// pairIndex maps an unordered pair (a<b) of m elements to a dense index.
func pairIndex(a, b, m int) int {
	if a > b {
		a, b = b, a
	}
	// Index into the upper triangle enumerated row by row.
	return a*(2*m-a-1)/2 + (b - a - 1)
}

func (d *dragonflyRouter) Route(src, dst *simx.Host) *simx.Route {
	si, di := src.ID(), dst.ID()
	if si >= len(d.hostLink) || di >= len(d.hostLink) {
		return nil
	}
	perGroup := d.routers * d.hostsPer
	gs, rs := si/perGroup, (si/d.hostsPer)%d.routers
	gd, rd := di/perGroup, (di/d.hostsPer)%d.routers
	links := []*simx.Link{d.hostLink[si], d.fabric[gs][rs]}
	switch {
	case gs == gd && rs == rd:
		// One crossbar joins the two hosts.
	case gs == gd:
		links = append(links, d.local[gs][pairIndex(rs, rd, d.routers)], d.fabric[gd][rd])
	default:
		gwS, gwD := gd%d.routers, gs%d.routers
		if rs != gwS {
			links = append(links, d.local[gs][pairIndex(rs, gwS, d.routers)], d.fabric[gs][gwS])
		}
		links = append(links, d.global[pairIndex(gs, gd, d.groups)])
		if rd != gwD {
			links = append(links, d.fabric[gd][gwD], d.local[gd][pairIndex(gwD, rd, d.routers)])
		}
		links = append(links, d.fabric[gd][rd])
	}
	links = append(links, d.hostLink[di])
	return simx.NewRoute(links)
}

// buildDragonfly creates the group/router/host levels and installs the
// minimal-routing computed router. Router crossbars are fatpipes; local and
// global cables are shared links.
func (t TopoSpec) buildDragonfly() (*Build, error) {
	b := &Build{Kernel: simx.New(), byCluster: make(map[string][]string)}
	k := b.Kernel
	n := t.HostCount()
	dr := &dragonflyRouter{groups: t.Groups, routers: t.Routers, hostsPer: t.HostsPer,
		hostLink: make([]*simx.Link, n)}
	dr.fabric = make([][]*simx.Link, t.Groups)
	dr.local = make([][]*simx.Link, t.Groups)
	for g := 0; g < t.Groups; g++ {
		dr.fabric[g] = make([]*simx.Link, t.Routers)
		for r := 0; r < t.Routers; r++ {
			fab := k.AddLink(fmt.Sprintf("dfly_g%d_r%d_xbar", g, r), t.BW, t.Lat)
			fab.Sharing = simx.SharingFatpipe
			dr.fabric[g][r] = fab
		}
		dr.local[g] = make([]*simx.Link, t.Routers*(t.Routers-1)/2)
		for a := 0; a < t.Routers; a++ {
			for c := a + 1; c < t.Routers; c++ {
				dr.local[g][pairIndex(a, c, t.Routers)] =
					k.AddLink(fmt.Sprintf("dfly_g%d_local_%d_%d", g, a, c), t.BW, t.Lat)
			}
		}
	}
	dr.global = make([]*simx.Link, t.Groups*(t.Groups-1)/2)
	for a := 0; a < t.Groups; a++ {
		for c := a + 1; c < t.Groups; c++ {
			dr.global[pairIndex(a, c, t.Groups)] =
				k.AddLink(fmt.Sprintf("dfly_global_%d_%d", a, c), t.BW, t.Lat)
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", t.hostPrefix(), i)
		k.AddHost(name, t.Power, t.Cores)
		dr.hostLink[i] = k.AddLink(fmt.Sprintf("dfly_host%d", i), t.BW, t.Lat)
		b.HostNames = append(b.HostNames, name)
	}
	k.SetRouter(dr)
	b.byCluster["dfly"] = b.HostNames
	return b, nil
}
