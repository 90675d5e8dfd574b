package platform

import (
	"fmt"
	"strconv"
	"strings"

	"tireplay/internal/simx"
	"tireplay/internal/units"
)

// Routing selects how an instantiated platform resolves host-pair routes.
type Routing int

const (
	// RoutingComputed (the default) composes routes on demand from a zone
	// hierarchy: O(hosts + zones²) route state, see zones.go.
	RoutingComputed Routing = iota
	// RoutingTable eagerly materializes a route for every host pair — the
	// historical reference implementation, O(n²·pathlen) memory, kept for
	// the equivalence tests and cross-checks.
	RoutingTable
)

func (r Routing) String() string {
	if r == RoutingTable {
		return "table"
	}
	return "computed"
}

// Build is an instantiated platform: a simulation kernel populated with the
// platform's hosts, links and routes, plus the host naming information the
// deployment step needs.
type Build struct {
	Kernel    *simx.Kernel
	HostNames []string // all hosts in declaration order
	byCluster map[string][]string

	routing Routing
	zones   *ZoneRouter // non-nil in computed mode
}

// Routing reports which route-resolution mode the build was instantiated
// with.
func (b *Build) Routing() Routing { return b.routing }

// newBuild creates an empty build in the given routing mode; computed mode
// installs a ZoneRouter on the fresh kernel.
func newBuild(r Routing) *Build {
	b := &Build{Kernel: simx.New(), byCluster: make(map[string][]string), routing: r}
	if r == RoutingComputed {
		b.zones = NewZoneRouter()
		b.Kernel.SetRouter(b.zones)
	}
	return b
}

// ClusterHosts returns the host names of a cluster in index order, or nil
// for an unknown cluster id.
func (b *Build) ClusterHosts(id string) []string { return b.byCluster[id] }

// WrapKernel adapts a manually constructed kernel into a Build, for callers
// assembling custom platforms programmatically instead of from XML.
func WrapKernel(k *simx.Kernel, hostNames []string) *Build {
	return &Build{Kernel: k, HostNames: hostNames, byCluster: make(map[string][]string),
		routing: RoutingTable}
}

// clusterInst carries what inter-cluster routing needs about a built
// cluster: for every host, the ordered links from the host up to the cluster
// core (its private link, then any intermediate switches), the core backbone
// itself, and (in computed mode) the cluster's routing zone.
type clusterInst struct {
	id       string
	hosts    []string
	uplink   map[string][]*simx.Link
	backbone *simx.Link
	zone     *Zone
}

// Instantiate populates a fresh simulation kernel from the platform
// description: cluster hosts are connected through their private link and
// the cluster backbone (so two nodes of a cluster communicate through two
// links and one switch, the topology behind the paper's latency/3 rule), and
// AS routes join clusters through the declared wide-area links. Routes are
// composed on demand from the zone hierarchy; InstantiateRouting selects the
// eager reference tables instead.
func Instantiate(p *Platform) (*Build, error) {
	return InstantiateRouting(p, RoutingComputed)
}

// InstantiateRouting is Instantiate with an explicit route-resolution mode.
func InstantiateRouting(p *Platform, r Routing) (*Build, error) {
	b := newBuild(r)
	var clusters []*clusterInst
	if err := b.walkAS(&p.AS, &clusters); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *Build) walkAS(a *AS, clusters *[]*clusterInst) error {
	k := b.Kernel
	localLinks := make(map[string]*simx.Link)
	localClusters := make(map[string]*clusterInst)

	for i := range a.Clusters {
		ci, err := b.buildCluster(&a.Clusters[i])
		if err != nil {
			return err
		}
		*clusters = append(*clusters, ci)
		localClusters[ci.id] = ci
	}
	for _, h := range a.Hosts {
		power, err := units.ParseQuantity(h.Power)
		if err != nil {
			return fmt.Errorf("platform: host %q: %w", h.ID, err)
		}
		cores, err := parseCores(h.Core)
		if err != nil {
			return fmt.Errorf("platform: host %q: %w", h.ID, err)
		}
		k.AddHost(h.ID, power, cores)
		b.HostNames = append(b.HostNames, h.ID)
	}
	for _, l := range a.Links {
		bw, err := units.ParseQuantity(l.Bandwidth)
		if err != nil {
			return fmt.Errorf("platform: link %q: %w", l.ID, err)
		}
		lat, err := units.ParseQuantity(l.Latency)
		if err != nil {
			return fmt.Errorf("platform: link %q: %w", l.ID, err)
		}
		sharing, err := parseSharing(l.SharingPolicy)
		if err != nil {
			return fmt.Errorf("platform: link %q: %w", l.ID, err)
		}
		lk := k.AddLink(l.ID, bw, lat)
		lk.Sharing = sharing
		localLinks[l.ID] = lk
	}
	for _, r := range a.Routes {
		links, err := resolveLinks(r.Links, localLinks)
		if err != nil {
			return err
		}
		k.AddRoute(r.Src, r.Dst, links)
		if r.Symmetrical != "NO" && r.Symmetrical != "no" {
			rev := make([]*simx.Link, len(links))
			for i, l := range links {
				rev[len(links)-1-i] = l
			}
			k.AddRoute(r.Dst, r.Src, rev)
		}
	}
	for i := range a.Subs {
		if err := b.walkAS(&a.Subs[i], clusters); err != nil {
			return err
		}
		for _, ci := range (*clusters)[len(*clusters)-len(a.Subs[i].Clusters):] {
			localClusters[ci.id] = ci
		}
	}
	// Sub-AS ids can themselves be route endpoints when a sub-AS holds a
	// single cluster; treat the AS id as an alias of that cluster.
	for i := range a.Subs {
		sub := &a.Subs[i]
		if len(sub.Clusters) == 1 {
			if ci, ok := localClusters[sub.Clusters[0].ID]; ok {
				localClusters[sub.ID] = ci
			}
		}
	}
	for _, ar := range a.ASRoutes {
		src, ok := localClusters[ar.Src]
		if !ok {
			return fmt.Errorf("platform: ASroute references unknown system %q", ar.Src)
		}
		dst, ok := localClusters[ar.Dst]
		if !ok {
			return fmt.Errorf("platform: ASroute references unknown system %q", ar.Dst)
		}
		wan, err := resolveLinks(ar.Links, localLinks)
		if err != nil {
			return err
		}
		b.connectClusters(src, dst, wan)
		if ar.Symmetrical != "NO" && ar.Symmetrical != "no" {
			rev := make([]*simx.Link, len(wan))
			for i, l := range wan {
				rev[len(wan)-1-i] = l
			}
			b.connectClusters(dst, src, rev)
		}
	}
	return nil
}

// buildCluster creates the hosts, private links and backbone of one cluster
// element, wiring its intra-cluster routing either as a routing zone
// (computed mode) or as eagerly materialized per-pair routes (table mode).
func (b *Build) buildCluster(c *Cluster) (*clusterInst, error) {
	k := b.Kernel
	idx, err := ParseRadical(c.Radical)
	if err != nil {
		return nil, err
	}
	power, err := units.ParseQuantity(c.Power)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	cores, err := parseCores(c.Core)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	bw, err := units.ParseQuantity(c.BW)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	lat, err := units.ParseQuantity(c.Lat)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	sharing, err := parseSharing(c.SharingPolicy)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	bbSharing, err := parseSharing(c.BBSharingPolicy)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	// Backbone defaults to ten times the host link, as in common SimGrid
	// cluster files, when bb_* attributes are absent.
	bbBw, bbLat := bw*10, lat
	if c.BBBw != "" {
		if bbBw, err = units.ParseQuantity(c.BBBw); err != nil {
			return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
		}
	}
	if c.BBLat != "" {
		if bbLat, err = units.ParseQuantity(c.BBLat); err != nil {
			return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
		}
	}

	ci := &clusterInst{
		id:       c.ID,
		uplink:   make(map[string][]*simx.Link),
		backbone: k.AddLink(c.ID+"_backbone", bbBw, bbLat),
	}
	ci.backbone.Sharing = bbSharing
	if b.zones != nil {
		ci.zone = b.zones.NewZone(c.ID, nil, ci.backbone)
	}
	for _, i := range idx {
		name := fmt.Sprintf("%s%d%s", c.Prefix, i, c.Suffix)
		h := k.AddHost(name, power, cores)
		hl := k.AddLink(fmt.Sprintf("%s_link_%d", c.ID, i), bw, lat)
		hl.Sharing = sharing
		ci.uplink[name] = []*simx.Link{hl}
		ci.hosts = append(ci.hosts, name)
		b.HostNames = append(b.HostNames, name)
		if ci.zone != nil {
			b.zones.Attach(h, ci.zone, hl)
		}
	}
	if ci.zone == nil {
		for _, src := range ci.hosts {
			for _, dst := range ci.hosts {
				if src == dst {
					continue
				}
				k.AddRoute(src, dst, []*simx.Link{ci.uplink[src][0], ci.backbone, ci.uplink[dst][0]})
			}
		}
	}
	b.byCluster[c.ID] = ci.hosts
	return ci, nil
}

// connectClusters joins two clusters through their uplinks, both backbones
// and the wide-area links: one inter-zone declaration in computed mode, a
// route for every host pair in table mode.
func (b *Build) connectClusters(src, dst *clusterInst, wan []*simx.Link) {
	if src.zone != nil && dst.zone != nil {
		b.zones.ConnectZones(src.zone, dst.zone, wan...)
		return
	}
	k := b.Kernel
	for _, s := range src.hosts {
		for _, d := range dst.hosts {
			up, down := src.uplink[s], dst.uplink[d]
			links := make([]*simx.Link, 0, len(wan)+len(up)+len(down)+2)
			links = append(links, up...)
			links = append(links, src.backbone)
			links = append(links, wan...)
			links = append(links, dst.backbone)
			for i := len(down) - 1; i >= 0; i-- {
				links = append(links, down[i])
			}
			k.AddRoute(s, d, links)
		}
	}
}

func resolveLinks(refs []LinkRef, links map[string]*simx.Link) ([]*simx.Link, error) {
	out := make([]*simx.Link, 0, len(refs))
	for _, r := range refs {
		l, ok := links[r.ID]
		if !ok {
			return nil, fmt.Errorf("platform: route references unknown link %q", r.ID)
		}
		out = append(out, l)
	}
	return out, nil
}

// parseSharing maps a SimGrid sharing_policy attribute onto the kernel's
// link policy. Absent means SHARED.
func parseSharing(s string) (simx.Sharing, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "SHARED":
		return simx.SharingShared, nil
	case "FATPIPE":
		return simx.SharingFatpipe, nil
	}
	return 0, fmt.Errorf("unknown sharing_policy %q (want SHARED or FATPIPE)", s)
}

func parseCores(s string) (int, error) {
	if s == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad core count %q", s)
	}
	return n, nil
}
