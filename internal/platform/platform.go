// Package platform describes simulated platforms and application deployments
// in the SimGrid XML dialect used by the paper (platform version 3), and
// instantiates them into simulation kernels.
//
// A platform file declares autonomous systems containing compute clusters
// (Figure 5 of the paper), explicit hosts, links and routes; a deployment
// file maps application processes onto hosts and passes them arguments such
// as the per-process trace file names (Figure 6 and Section 5).
package platform

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"

	"tireplay/internal/units"
)

// Platform is the root of a platform description.
type Platform struct {
	XMLName xml.Name `xml:"platform"`
	Version string   `xml:"version,attr"`
	AS      AS       `xml:"AS"`
}

// AS is an autonomous system: a routing domain containing clusters, hosts,
// links, routes and possibly nested systems.
type AS struct {
	ID       string     `xml:"id,attr"`
	Routing  string     `xml:"routing,attr"`
	Clusters []Cluster  `xml:"cluster"`
	Hosts    []HostDef  `xml:"host"`
	Links    []LinkDef  `xml:"link"`
	Routes   []RouteDef `xml:"route"`
	Subs     []AS       `xml:"AS"`
	ASRoutes []ASRoute  `xml:"ASroute"`
}

// Cluster is a homogeneous compute cluster: hosts named
// <prefix><index><suffix> for each index in the radical, each connected by a
// private link (bw, lat) to a backbone (bb_bw, bb_lat) standing for the
// cluster switch fabric.
type Cluster struct {
	ID      string `xml:"id,attr"`
	Prefix  string `xml:"prefix,attr"`
	Suffix  string `xml:"suffix,attr"`
	Radical string `xml:"radical,attr"`
	Power   string `xml:"power,attr"`
	Core    string `xml:"core,attr"`
	BW      string `xml:"bw,attr"`
	Lat     string `xml:"lat,attr"`
	BBBw    string `xml:"bb_bw,attr"`
	BBLat   string `xml:"bb_lat,attr"`
	// SharingPolicy / BBSharingPolicy set the bandwidth sharing of the host
	// links and the backbone: SHARED (default) or FATPIPE.
	SharingPolicy   string `xml:"sharing_policy,attr"`
	BBSharingPolicy string `xml:"bb_sharing_policy,attr"`
}

// HostDef is an explicitly declared host.
type HostDef struct {
	ID    string `xml:"id,attr"`
	Power string `xml:"power,attr"`
	Core  string `xml:"core,attr"`
}

// LinkDef is an explicitly declared link.
type LinkDef struct {
	ID        string `xml:"id,attr"`
	Bandwidth string `xml:"bandwidth,attr"`
	Latency   string `xml:"latency,attr"`
	// SharingPolicy is SHARED (default, max-min contention) or FATPIPE
	// (every flow gets the full bandwidth).
	SharingPolicy string `xml:"sharing_policy,attr"`
}

// RouteDef is an explicit route between two hosts, listing link references.
type RouteDef struct {
	Src   string    `xml:"src,attr"`
	Dst   string    `xml:"dst,attr"`
	Links []LinkRef `xml:"link_ctn"`
	// Symmetrical is YES or NO in any case; empty means YES, per the
	// SimGrid DTD.
	Symmetrical string `xml:"symmetrical,attr"`
}

// ASRoute connects two sub-systems (e.g. two clusters) through links; the
// scattering acquisition mode uses it for the wide-area interconnect.
type ASRoute struct {
	Src         string    `xml:"src,attr"`
	Dst         string    `xml:"dst,attr"`
	Links       []LinkRef `xml:"link_ctn"`
	Symmetrical string    `xml:"symmetrical,attr"`
}

// LinkRef references a declared link inside a route.
type LinkRef struct {
	ID string `xml:"id,attr"`
}

// Parse reads a platform description from r.
func Parse(r io.Reader) (*Platform, error) {
	var p Platform
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("platform: parse: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ParseFile reads a platform description from a file.
func ParseFile(path string) (*Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

func (p *Platform) validate() error {
	return p.AS.validate()
}

func (a *AS) validate() error {
	for _, c := range a.Clusters {
		if c.ID == "" {
			return fmt.Errorf("platform: cluster without id in AS %q", a.ID)
		}
		if _, err := ParseRadical(c.Radical); err != nil {
			return fmt.Errorf("platform: cluster %q: %w", c.ID, err)
		}
		for _, attr := range []struct{ name, v string }{
			{"power", c.Power}, {"bw", c.BW}, {"lat", c.Lat},
		} {
			if attr.v == "" {
				return fmt.Errorf("platform: cluster %q: missing %s", c.ID, attr.name)
			}
			if _, err := units.ParseQuantity(attr.v); err != nil {
				return fmt.Errorf("platform: cluster %q: bad %s: %w", c.ID, attr.name, err)
			}
		}
	}
	for _, h := range a.Hosts {
		if h.ID == "" || h.Power == "" {
			return fmt.Errorf("platform: host needs id and power in AS %q", a.ID)
		}
	}
	for _, l := range a.Links {
		if l.ID == "" || l.Bandwidth == "" || l.Latency == "" {
			return fmt.Errorf("platform: link needs id, bandwidth and latency in AS %q", a.ID)
		}
	}
	for _, r := range a.Routes {
		if _, err := parseSymmetrical(r.Symmetrical); err != nil {
			return fmt.Errorf("platform: route %q -> %q: %w", r.Src, r.Dst, err)
		}
	}
	for _, r := range a.ASRoutes {
		if _, err := parseSymmetrical(r.Symmetrical); err != nil {
			return fmt.Errorf("platform: ASroute %q -> %q: %w", r.Src, r.Dst, err)
		}
	}
	for i := range a.Subs {
		if err := a.Subs[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// Hosts returns every host name declared by the platform in declaration
// order: for each AS, cluster hosts (expanded from the radical) first, then
// explicit hosts, then the hosts of nested systems.
func (p *Platform) Hosts() ([]string, error) {
	var hosts []string
	if err := walkHosts(&p.AS, func(name string) { hosts = append(hosts, name) }); err != nil {
		return nil, err
	}
	return hosts, nil
}

func walkHosts(a *AS, visit func(string)) error {
	for i := range a.Clusters {
		names, err := clusterHostNames(&a.Clusters[i])
		if err != nil {
			return err
		}
		for _, n := range names {
			visit(n)
		}
	}
	for _, h := range a.Hosts {
		visit(h.ID)
	}
	for i := range a.Subs {
		if err := walkHosts(&a.Subs[i], visit); err != nil {
			return err
		}
	}
	return nil
}

// clusterHostNames expands a cluster's radical into its host names, the same
// naming buildCluster applies when instantiating.
func clusterHostNames(c *Cluster) ([]string, error) {
	idx, err := ParseRadical(c.Radical)
	if err != nil {
		return nil, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	names := make([]string, len(idx))
	for i, n := range idx {
		names[i] = fmt.Sprintf("%s%d%s", c.Prefix, n, c.Suffix)
	}
	return names, nil
}

// Marshal renders the platform back to XML (with the SimGrid doctype), the
// inverse of Parse. Calibration tools use it to emit instantiated platforms.
func (p *Platform) Marshal(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "<!DOCTYPE platform SYSTEM \"simgrid.dtd\">\n"); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(p); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
