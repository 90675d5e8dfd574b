package simx

import "fmt"

// Host is a computing resource: a node of the simulated platform. Its Speed
// is the per-core computing power in flop/s. Concurrent compute activities
// share the host fairly: with n activities on c cores each runs at
// Speed*min(1, c/n) — the mechanism behind the linear slowdown of the
// paper's Folding acquisition mode.
type Host struct {
	Name  string
	Speed float64 // flop/s per core
	Cores int

	// off marks a fail-stopped host (see Kernel.FailHostAt): its running
	// activities were killed and any later operation touching it fails with
	// a *FailedError.
	off bool

	// id is the host's dense kernel-assigned index (declaration order);
	// routers key pair lookups and attachment tables off it, so route
	// resolution never touches the host name.
	id int

	// computes holds the running compute activities in start order; each
	// activity records its index in pos, so removal is O(1) without a map.
	computes []*activity
	loop     *Link  // private loopback link for intra-host communications
	loopRt   *Route // cached single-link route over loop
	// routeTo caches resolved outgoing routes under a pointer key, so the
	// per-match lookup neither concatenates a string key nor hashes one —
	// and a computed router composes each used pair at most once.
	routeTo map[*Host]*Route
}

// Communications between two processes on the same host (e.g. folded
// acquisitions) cross a private link per host, so loopback traffic does not
// contend with the network: a shared-memory copy at loopBandwidth after
// loopLatency.
const (
	loopBandwidth = 10e9 // 10 GB/s
	loopLatency   = 1e-7 // 100 ns
)

// ID returns the host's dense kernel index, assigned in declaration order.
func (h *Host) ID() int { return h.id }

// Sharing is a link's bandwidth sharing policy.
type Sharing uint8

const (
	// SharingShared divides the link bandwidth among the flows crossing it
	// according to max-min fairness — the default, SimGrid's SHARED policy.
	SharingShared Sharing = iota
	// SharingFatpipe caps every flow at the full link bandwidth without
	// contention between flows — SimGrid's FATPIPE policy, the model of a
	// non-blocking switch fabric or an aggregate of parallel cables.
	SharingFatpipe
)

// Link is a network resource with a nominal bandwidth (byte/s) and latency
// (seconds). Concurrent flows crossing a link share its bandwidth according
// to the kernel's max-min fairness model, or each use the full bandwidth
// when the link is a fatpipe.
//
// Bandwidth and Sharing are set before the first transfer. Once a simulation
// runs, only DegradeAllLinksAt writes Bandwidth: the kernel memoizes solves
// (see solveMemo) and resets the memo there, nowhere else.
type Link struct {
	Name      string
	Bandwidth float64
	Latency   float64
	Sharing   Sharing
	// id is the link's declaration index (AddLink order), stored in the
	// padding after Sharing so the struct the solver walks on every reshare
	// stays 88 bytes. Host loopbacks are not declared and carry none; the
	// route walk numbers them after the declared links (AppendRouteLinks).
	id int32

	// off marks a fail-stopped link (see Kernel.FailRouteAt): flows crossing
	// it were killed and any later transfer routed over it fails with a
	// *FailedError.
	off bool

	// index assigned by the max-min solver for fast lookups.
	idx int
	// flows lists the transfers currently crossing the link, each once even
	// when its route names the link twice, so its length counts them: a
	// link listing every flow of the contended set couples the whole set,
	// and otherwise the lists are the adjacency structure the kernel walks
	// to find the connected component affected by a flow joining or leaving
	// (partial resharing).
	flows []*activity
	// mark is the kernel's visit epoch during component traversal.
	mark uint64
}

// Route is an ordered sequence of links connecting two hosts. Latency is the
// sum of link latencies (plus any fixed extra the platform defines).
type Route struct {
	Links   []*Link
	Latency float64
	// id is the dense number the resolving kernel gave the route (1 up, 0
	// until resolved); equal IDs mean equal link lists, which is what keys
	// the solve memo.
	id int32
}

// NewRoute builds a route over the given links with the summed latency.
func NewRoute(links []*Link) *Route {
	lat := 0.0
	for _, l := range links {
		lat += l.Latency
	}
	return &Route{Links: links, Latency: lat}
}

// Router resolves the route a transfer between two distinct hosts follows.
// The kernel consults its router on the first transfer of each (src, dst)
// pair and caches the result for the rest of the simulation, so a router may
// compose routes on demand (zone hierarchies, generated topologies) instead
// of materializing a per-pair table — the returned route must simply stay
// valid once handed out: its Links do not change. Route returns nil when no
// route exists. A route belongs to the one kernel that resolved it (it
// carries that kernel's route ID), so a router instance, like the links its
// routes cross, serves one kernel.
type Router interface {
	Route(src, dst *Host) *Route
}

// RouteAdder is implemented by routers that accept explicit per-pair routes;
// Kernel.AddRoute delegates to it.
type RouteAdder interface {
	AddRoute(src, dst *Host, r *Route)
}

// pairKey packs two dense host IDs into one map key; route lookups hash one
// integer instead of concatenating and hashing a "src|dst" string.
func pairKey(src, dst *Host) uint64 {
	return uint64(uint32(src.id))<<32 | uint64(uint32(dst.id))
}

// TableRouter is the kernel's default router: an explicit route table under
// dense host-ID pair keys.
type TableRouter struct {
	routes map[uint64]*Route
}

// NewTableRouter returns an empty explicit route table.
func NewTableRouter() *TableRouter {
	return &TableRouter{routes: make(map[uint64]*Route)}
}

// AddRoute declares the route from src to dst, replacing any previous one.
func (t *TableRouter) AddRoute(src, dst *Host, r *Route) {
	t.routes[pairKey(src, dst)] = r
}

// Route returns the declared route or nil.
func (t *TableRouter) Route(src, dst *Host) *Route {
	return t.routes[pairKey(src, dst)]
}

// AddHost declares a host. Speed is per-core flop/s.
func (k *Kernel) AddHost(name string, speed float64, cores int) *Host {
	if _, dup := k.hosts[name]; dup {
		panic("simx: duplicate host " + name)
	}
	if cores < 1 {
		cores = 1
	}
	h := &Host{
		Name:  name,
		Speed: speed,
		Cores: cores,
		id:    len(k.hosts),
		loop: &Link{
			Name:      name + "_loopback",
			Bandwidth: loopBandwidth,
			Latency:   loopLatency,
		},
	}
	h.loopRt = &Route{Links: []*Link{h.loop}, Latency: h.loop.Latency, id: k.newRouteID()}
	k.hosts[name] = h
	k.hostList = append(k.hostList, h)
	return h
}

// Host returns the named host or nil.
func (k *Kernel) Host(name string) *Host { return k.hosts[name] }

// Hosts returns the number of declared hosts.
func (k *Kernel) Hosts() int { return len(k.hosts) }

// AddLink declares a network link with the default shared policy.
func (k *Kernel) AddLink(name string, bandwidth, latency float64) *Link {
	if _, dup := k.links[name]; dup {
		panic("simx: duplicate link " + name)
	}
	l := &Link{Name: name, Bandwidth: bandwidth, Latency: latency, id: int32(len(k.linkList))}
	k.links[name] = l
	k.linkList = append(k.linkList, l)
	return l
}

// Link returns the named link or nil.
func (k *Kernel) Link(name string) *Link { return k.links[name] }

// Links returns the number of declared links.
func (k *Kernel) Links() int { return len(k.linkList) }

// SetRouter installs the route resolver consulted for host pairs without a
// cached route. The default is a dense-keyed TableRouter fed by AddRoute;
// platform layers install computed routers (zone hierarchies, generated
// topologies) instead. Installing a router drops every cached resolution.
func (k *Kernel) SetRouter(r Router) {
	k.router = r
	for _, h := range k.hosts {
		h.routeTo = nil
	}
}

// Router returns the installed route resolver.
func (k *Kernel) Router() Router { return k.router }

// AddRoute declares the route used by transfers from src to dst. Routes are
// directional; callers wanting symmetry add both directions. The route
// latency is the sum of the link latencies. The installed router must accept
// explicit routes (the default table does; computed routers may, as
// overrides).
func (k *Kernel) AddRoute(src, dst string, links []*Link) {
	s, d := k.hosts[src], k.hosts[dst]
	if s == nil || d == nil {
		panic(fmt.Sprintf("simx: route between undeclared hosts %q -> %q", src, dst))
	}
	ra, ok := k.router.(RouteAdder)
	if !ok {
		panic(fmt.Sprintf("simx: router %T does not accept explicit routes", k.router))
	}
	ra.AddRoute(s, d, NewRoute(links))
	// Drop any cached resolution of the replaced route.
	delete(s.routeTo, d)
}

// AppendRouteLinks resolves the route a transfer from src to dst crosses and
// appends the indices of its links to idx, in route order, returning the
// extended slice. Indices number every link of the platform densely:
// declared links by declaration index (0 to Links()-1), then each host's
// private loopback at Links()+Host.ID() — the route a transfer takes when
// source and destination coincide, exactly as the transfer itself resolves
// it. Routes must be built from links declared with AddLink. The replay fork
// safety check uses the walk to map a recorded transfer back to the
// physical links whose sharing it influenced, without touching a name.
func (k *Kernel) AppendRouteLinks(src, dst *Host, idx []int32) []int32 {
	if src == dst {
		return append(idx, int32(len(k.linkList)+src.id))
	}
	for _, l := range k.routeBetween(src, dst).Links {
		idx = append(idx, l.id)
	}
	return idx
}

// routeBetween resolves the route for a transfer, falling back to the
// host-private loopback when source and destination coincide. The first
// resolution of a pair goes through the router; the result is cached under a
// pointer key on the source host and numbered if it is new to the kernel.
func (k *Kernel) routeBetween(src, dst *Host) *Route {
	if src == dst {
		return src.loopRt
	}
	if r := src.routeTo[dst]; r != nil {
		return r
	}
	r := k.router.Route(src, dst)
	if r == nil {
		panic(fmt.Sprintf("simx: no route from %q to %q", src.Name, dst.Name))
	}
	if r.id == 0 {
		r.id = k.newRouteID()
	}
	if src.routeTo == nil {
		src.routeTo = make(map[*Host]*Route)
	}
	src.routeTo[dst] = r
	return r
}

// newRouteID issues the next dense route ID.
func (k *Kernel) newRouteID() int32 {
	k.routeIDs++
	return k.routeIDs
}
