package platform

import (
	"fmt"

	"tireplay/internal/simx"
)

// This file is the computed routing layer: instead of materializing a route
// for every host pair (O(n²·pathlen) memory), the platform builds a
// hierarchy of routing zones — host → cluster → wider systems — and
// composes each route on demand from the host's uplink, the zone backbones
// along the way, and the inter-zone segment joining two independent
// systems. Route state is O(hosts + zones²): per host the few links up to
// its zone core, per zone pair one cached middle segment. The kernel caches
// each composed route under a host-pointer key the first time a pair
// communicates, so steady-state resolution costs one map hit.

// Zone is one node of the routing hierarchy. Hosts attach to a zone; zones
// nest (a switch group inside a cluster, a cluster inside a site). Traffic
// between two members of a zone crosses the zone's backbone; traffic leaving
// a nested zone additionally crosses its uplink toward the parent.
type Zone struct {
	id       int
	name     string
	parent   *Zone
	depth    int
	backbone *simx.Link   // joins the zone's hosts/children; nil = wire-only
	uplink   []*simx.Link // links from the zone core to the parent's core
}

// Name returns the zone's diagnostic name.
func (z *Zone) Name() string { return z.name }

// root walks to the zone's outermost ancestor.
func (z *Zone) root() *Zone {
	for z.parent != nil {
		z = z.parent
	}
	return z
}

// hostAttach records how a host reaches its zone: the ordered links from the
// host up to the zone core (its private link, then any intermediate hops).
type hostAttach struct {
	zone *Zone
	up   []*simx.Link
	lat  float64 // summed latency of up
}

// spineSeg is one cached zone-pair middle segment: every link of the route
// between the two zones' cores, and its summed latency.
type spineSeg struct {
	links []*simx.Link
	lat   float64
}

// ZoneRouter composes host-pair routes from a zone hierarchy. It implements
// simx.Router (resolution on demand) and simx.RouteAdder (explicit per-pair
// overrides, used for XML <route> declarations).
type ZoneRouter struct {
	zones  []*Zone
	attach []hostAttach // indexed by dense simx host ID
	// inter maps a (src root zone, dst root zone) pair to the wide-area
	// links joining them (directional, the ASroute declaration).
	inter map[uint64][]*simx.Link
	// spine caches composed zone-pair middle segments under dense zone-pair
	// keys — the O(zones²) heart of the computed layer.
	spine map[uint64]*spineSeg
	// explicit holds per-host-pair route overrides under dense host-pair
	// keys.
	explicit map[uint64]*simx.Route
}

// NewZoneRouter returns an empty computed router.
func NewZoneRouter() *ZoneRouter {
	return &ZoneRouter{
		inter:    make(map[uint64][]*simx.Link),
		spine:    make(map[uint64]*spineSeg),
		explicit: make(map[uint64]*simx.Route),
	}
}

// NewZone declares a zone. backbone (may be nil) carries intra-zone traffic;
// uplink lists the links from this zone's core up to the parent's core, in
// upward order, for nested zones.
func (zr *ZoneRouter) NewZone(name string, parent *Zone, backbone *simx.Link, uplink ...*simx.Link) *Zone {
	z := &Zone{id: len(zr.zones), name: name, parent: parent, backbone: backbone, uplink: uplink}
	if parent != nil {
		z.depth = parent.depth + 1
	}
	zr.zones = append(zr.zones, z)
	return z
}

// Zones returns the number of declared zones.
func (zr *ZoneRouter) Zones() int { return len(zr.zones) }

// Attach connects a host to a zone through the given uplink links (host
// side first). A host attaches to exactly one zone.
func (zr *ZoneRouter) Attach(h *simx.Host, z *Zone, up ...*simx.Link) {
	id := h.ID()
	for id >= len(zr.attach) {
		zr.attach = append(zr.attach, hostAttach{})
	}
	if zr.attach[id].zone != nil {
		panic(fmt.Sprintf("platform: host %q attached to two zones", h.Name))
	}
	lat := 0.0
	for _, l := range up {
		lat += l.Latency
	}
	zr.attach[id] = hostAttach{zone: z, up: up, lat: lat}
}

// ConnectZones declares that traffic from the system rooted at src to the
// one rooted at dst crosses the given wide-area links (after src's backbones
// and before dst's). Directional, like ASroute declarations; callers wanting
// symmetry connect both ways with the links reversed.
func (zr *ZoneRouter) ConnectZones(src, dst *Zone, via ...*simx.Link) {
	zr.inter[zonePairKey(src.root(), dst.root())] = via
}

// AddRoute installs an explicit per-pair override (simx.RouteAdder); XML
// <route> declarations between named hosts land here.
func (zr *ZoneRouter) AddRoute(src, dst *simx.Host, r *simx.Route) {
	zr.explicit[hostPairKey(src, dst)] = r
}

func hostPairKey(src, dst *simx.Host) uint64 {
	return uint64(uint32(src.ID()))<<32 | uint64(uint32(dst.ID()))
}

func zonePairKey(a, b *Zone) uint64 {
	return uint64(uint32(a.id))<<32 | uint64(uint32(b.id))
}

// Route composes the route from src to dst: explicit override if declared,
// otherwise src's uplink + the (cached) zone-pair spine + dst's downlink.
// Returns nil when the hosts are not joined by the hierarchy. The kernel
// calls this once per communicating pair and caches the result.
func (zr *ZoneRouter) Route(src, dst *simx.Host) *simx.Route {
	if r, ok := zr.explicit[hostPairKey(src, dst)]; ok {
		return r
	}
	a, b := zr.attachOf(src), zr.attachOf(dst)
	if a == nil || b == nil {
		return nil
	}
	sp := zr.spineBetween(a.zone, b.zone)
	if sp == nil {
		return nil
	}
	links := make([]*simx.Link, 0, len(a.up)+len(sp.links)+len(b.up))
	links = append(links, a.up...)
	links = append(links, sp.links...)
	for i := len(b.up) - 1; i >= 0; i-- {
		links = append(links, b.up[i])
	}
	return &simx.Route{Links: links, Latency: a.lat + sp.lat + b.lat}
}

func (zr *ZoneRouter) attachOf(h *simx.Host) *hostAttach {
	id := h.ID()
	if id >= len(zr.attach) || zr.attach[id].zone == nil {
		return nil
	}
	return &zr.attach[id]
}

// spineBetween returns (composing and caching on first use) the middle
// segment of every route between hosts of za and hosts of zb.
func (zr *ZoneRouter) spineBetween(za, zb *Zone) *spineSeg {
	key := zonePairKey(za, zb)
	if sp, ok := zr.spine[key]; ok {
		return sp
	}
	sp := zr.composeSpine(za, zb)
	zr.spine[key] = sp // negative results cache too: nil means unroutable
	return sp
}

// composeSpine builds the zone-to-zone middle segment. Within one system the
// path climbs from za to the lowest common ancestor, crosses its backbone,
// and descends to zb; between systems it climbs through za's root, crosses
// the declared inter-zone links, and descends through zb's root.
func (zr *ZoneRouter) composeSpine(za, zb *Zone) *spineSeg {
	ra, rb := za.root(), zb.root()
	var links []*simx.Link
	if ra == rb {
		// Climb from za to the common ancestor, cross its backbone, descend
		// into zb. When za == zb the climbs are empty and the backbone alone
		// joins the two hosts.
		lca := lowestCommonAncestor(za, zb)
		for z := za; z != lca; z = z.parent {
			links = appendZoneUp(links, z)
		}
		if lca.backbone != nil {
			links = append(links, lca.backbone)
		}
		links = appendZoneDownTo(links, zb, lca)
	} else {
		via, ok := zr.inter[zonePairKey(ra, rb)]
		if !ok {
			return nil
		}
		for z := za; z != nil; z = z.parent {
			links = appendZoneUp(links, z)
		}
		links = append(links, via...)
		var down []*simx.Link
		for z := zb; z != nil; z = z.parent {
			down = appendZoneUp(down, z)
		}
		for i := len(down) - 1; i >= 0; i-- {
			links = append(links, down[i])
		}
	}
	lat := 0.0
	for _, l := range links {
		lat += l.Latency
	}
	return &spineSeg{links: links, lat: lat}
}

// appendZoneUp appends the links crossed when traffic leaves z upward: its
// backbone (reaching the zone core) then its uplink chain to the parent.
func appendZoneUp(links []*simx.Link, z *Zone) []*simx.Link {
	if z.backbone != nil {
		links = append(links, z.backbone)
	}
	return append(links, z.uplink...)
}

// appendZoneDownTo appends, in traversal order, the links crossed descending
// from (but excluding) ancestor anc into zone z.
func appendZoneDownTo(links []*simx.Link, z *Zone, anc *Zone) []*simx.Link {
	var climb []*simx.Link
	for zz := z; zz != anc; zz = zz.parent {
		climb = appendZoneUp(climb, zz)
	}
	for i := len(climb) - 1; i >= 0; i-- {
		links = append(links, climb[i])
	}
	return links
}

func lowestCommonAncestor(a, b *Zone) *Zone {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a != b {
		a, b = a.parent, b.parent
	}
	return a
}
