package platform

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tireplay/internal/simx"
	"tireplay/internal/units"
)

// Build is an instantiated platform: a simulation kernel populated with the
// platform's hosts, links and routes, plus the host naming information the
// deployment step needs.
type Build struct {
	Kernel    *simx.Kernel
	HostNames []string // all hosts in declaration order
	byCluster map[string][]string

	zones *ZoneRouter // nil for generated topologies, which install their own routers
}

// newBuild creates an empty build whose kernel composes routes from a zone
// hierarchy (see zones.go).
func newBuild() *Build {
	b := &Build{Kernel: simx.New(), byCluster: make(map[string][]string), zones: NewZoneRouter()}
	b.Kernel.SetRouter(b.zones)
	return b
}

// ClusterHosts returns the host names of a cluster in index order, or nil
// for an unknown cluster id.
func (b *Build) ClusterHosts(id string) []string { return b.byCluster[id] }

// Instantiate populates a fresh simulation kernel from the platform
// description: cluster hosts are connected through their private link and
// the cluster backbone (so two nodes of a cluster communicate through two
// links and one switch, the topology behind the paper's latency/3 rule), and
// AS routes join clusters through the declared wide-area links. Routes are
// composed on demand from the zone hierarchy. A description naming a host or
// link twice, or routing between undeclared hosts, is an error.
func Instantiate(p *Platform) (*Build, error) {
	b := newBuild()
	var clusters []*Zone
	if err := b.walkAS(&p.AS, &clusters); err != nil {
		return nil, err
	}
	return b, nil
}

// addHost declares a host, refusing a name the kernel already holds and a
// power that is not positive and finite (a zero, negative or NaN flop rate
// would give its bursts a completion time the kernel cannot schedule).
func (b *Build) addHost(name string, power float64, cores int) (*simx.Host, error) {
	if b.Kernel.Host(name) != nil {
		return nil, fmt.Errorf("platform: duplicate host %q", name)
	}
	if !(power > 0 && !math.IsInf(power, 1)) {
		return nil, fmt.Errorf("platform: host %q: power %g is not positive and finite", name, power)
	}
	b.HostNames = append(b.HostNames, name)
	return b.Kernel.AddHost(name, power, cores), nil
}

// addLink declares a link, refusing an id the kernel already holds, a
// bandwidth that is not positive and finite and a latency that is negative
// or not finite (either would put a transfer's completion at an infinite,
// NaN or past time).
func (b *Build) addLink(id string, bw, lat float64, sharing simx.Sharing) (*simx.Link, error) {
	if b.Kernel.Link(id) != nil {
		return nil, fmt.Errorf("platform: duplicate link %q", id)
	}
	if !(bw > 0 && !math.IsInf(bw, 1)) {
		return nil, fmt.Errorf("platform: link %q: bandwidth %g is not positive and finite", id, bw)
	}
	if !(lat >= 0 && !math.IsInf(lat, 1)) {
		return nil, fmt.Errorf("platform: link %q: latency %g is negative or not finite", id, lat)
	}
	l := b.Kernel.AddLink(id, bw, lat)
	l.Sharing = sharing
	return l, nil
}

// reversed returns the links in reverse order: the way back of a
// symmetrical route.
func reversed(links []*simx.Link) []*simx.Link {
	rev := make([]*simx.Link, len(links))
	for i, l := range links {
		rev[len(links)-1-i] = l
	}
	return rev
}

func (b *Build) walkAS(a *AS, clusters *[]*Zone) error {
	k := b.Kernel
	localLinks := make(map[string]*simx.Link)
	localClusters := make(map[string]*Zone)

	for i := range a.Clusters {
		z, err := b.buildCluster(&a.Clusters[i])
		if err != nil {
			return err
		}
		*clusters = append(*clusters, z)
		localClusters[z.Name()] = z
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
		if _, err := b.addHost(h.ID, power, cores); err != nil {
			return err
		}
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
		if localLinks[l.ID], err = b.addLink(l.ID, bw, lat, sharing); err != nil {
			return err
		}
	}
	for _, r := range a.Routes {
		links, err := resolveLinks(r.Links, localLinks)
		if err != nil {
			return err
		}
		if k.Host(r.Src) == nil || k.Host(r.Dst) == nil {
			return fmt.Errorf("platform: route %q -> %q names an undeclared host", r.Src, r.Dst)
		}
		sym, err := parseSymmetrical(r.Symmetrical)
		if err != nil {
			return fmt.Errorf("platform: route %q -> %q: %w", r.Src, r.Dst, err)
		}
		k.AddRoute(r.Src, r.Dst, links)
		if sym {
			k.AddRoute(r.Dst, r.Src, reversed(links))
		}
	}
	for i := range a.Subs {
		if err := b.walkAS(&a.Subs[i], clusters); err != nil {
			return err
		}
		for _, z := range (*clusters)[len(*clusters)-len(a.Subs[i].Clusters):] {
			localClusters[z.Name()] = z
		}
	}
	// Sub-AS ids can themselves be route endpoints when a sub-AS holds a
	// single cluster; treat the AS id as an alias of that cluster.
	for i := range a.Subs {
		sub := &a.Subs[i]
		if len(sub.Clusters) == 1 {
			if z, ok := localClusters[sub.Clusters[0].ID]; ok {
				localClusters[sub.ID] = z
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
		sym, err := parseSymmetrical(ar.Symmetrical)
		if err != nil {
			return fmt.Errorf("platform: ASroute %q -> %q: %w", ar.Src, ar.Dst, err)
		}
		// Traffic between the clusters crosses the source uplink and
		// backbone, the wide-area links, then the destination backbone and
		// downlink: one inter-zone declaration.
		b.zones.ConnectZones(src, dst, wan...)
		if sym {
			b.zones.ConnectZones(dst, src, reversed(wan)...)
		}
	}
	return nil
}

// buildCluster creates the hosts, private links and backbone of one cluster
// element as a routing zone named after the cluster.
func (b *Build) buildCluster(c *Cluster) (*Zone, error) {
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

	backbone, err := b.addLink(c.ID+"_backbone", bbBw, bbLat, bbSharing)
	if err != nil {
		return nil, err
	}
	zone := b.zones.NewZone(c.ID, nil, backbone)
	hosts := make([]string, 0, len(idx))
	for _, i := range idx {
		name := fmt.Sprintf("%s%d%s", c.Prefix, i, c.Suffix)
		h, err := b.addHost(name, power, cores)
		if err != nil {
			return nil, err
		}
		hl, err := b.addLink(fmt.Sprintf("%s_link_%d", c.ID, i), bw, lat, sharing)
		if err != nil {
			return nil, err
		}
		b.zones.Attach(h, zone, hl)
		hosts = append(hosts, name)
	}
	b.byCluster[c.ID] = hosts
	return zone, nil
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

// parseSymmetrical reads a route's symmetrical attribute, YES or NO in any
// case: whether the reverse route is declared too. Absent means YES, per
// the SimGrid DTD.
func parseSymmetrical(s string) (bool, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "YES":
		return true, nil
	case "NO":
		return false, nil
	}
	return false, fmt.Errorf("bad symmetrical %q (want YES or NO)", s)
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
