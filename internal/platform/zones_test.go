package platform

import (
	"fmt"
	"strings"
	"testing"

	"tireplay/internal/simx"
)

// This file pins the computed routing layer against a route table written
// out in the tests: on every platform description the repo ships — the
// paper's radical cluster file, a two-cluster ASroute description, the
// hierarchical gdx interconnect and the combined Grid'5000 build — every
// host pair must resolve to the uplink, backbone(s) and wide-area links the
// description implies, in that order, with their summed latency.

// routesMatch resolves every ordered host pair of b and compares the route
// with want's link names and with the latency of those links summed in
// route order.
func routesMatch(t *testing.T, b *Build, want func(src, dst string) []string) {
	t.Helper()
	k := b.Kernel
	for _, s := range b.HostNames {
		for _, d := range b.HostNames {
			if s == d {
				continue
			}
			r := k.Router().Route(k.Host(s), k.Host(d))
			if r == nil {
				t.Fatalf("%s->%s: route missing", s, d)
			}
			names := want(s, d)
			links := make([]*simx.Link, len(names))
			for i, n := range names {
				if links[i] = k.Link(n); links[i] == nil {
					t.Fatalf("%s->%s: expected link %q not declared", s, d, n)
				}
			}
			if got, exp := linkNames(r), "["+strings.Join(names, " ")+"]"; got != exp {
				t.Fatalf("%s->%s: route %s, want %s", s, d, got, exp)
			}
			if exp := simx.NewRoute(links).Latency; r.Latency != exp {
				t.Fatalf("%s->%s: latency %g, want %g", s, d, r.Latency, exp)
			}
		}
	}
}

func linkNames(r *simx.Route) string {
	names := make([]string, len(r.Links))
	for i, l := range r.Links {
		names[i] = l.Name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// clusterRoutes is the expected route function of a description made of
// radical clusters joined by the wan link: a host's private link and its
// cluster backbone, then (between clusters) the wan link and the other
// cluster's backbone, then the destination's private link.
func clusterRoutes(t *testing.T, p *Platform) func(src, dst string) []string {
	t.Helper()
	up, cluster := make(map[string]string), make(map[string]string)
	for _, c := range p.AS.Clusters {
		idx, err := ParseRadical(c.Radical)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			name := fmt.Sprintf("%s%d%s", c.Prefix, i, c.Suffix)
			up[name] = fmt.Sprintf("%s_link_%d", c.ID, i)
			cluster[name] = c.ID
		}
	}
	return func(s, d string) []string {
		if cluster[s] == cluster[d] {
			return []string{up[s], cluster[s] + "_backbone", up[d]}
		}
		return []string{up[s], cluster[s] + "_backbone", "wan", cluster[d] + "_backbone", up[d]}
	}
}

// gdxUplinks maps each of the first nodes gdx hosts to its uplink chain,
// host side first: its private link, then the first-level switch its
// cabinet pair shares.
func gdxUplinks(nodes int) map[string][]string {
	perCabinet := (nodes + GdxCabinets - 1) / GdxCabinets
	up := make(map[string][]string)
	for i := 0; i < nodes; i++ {
		up[fmt.Sprintf("gdx-%d.orsay.grid5000.fr", i)] = []string{
			fmt.Sprintf("gdx_link_%d", i), fmt.Sprintf("gdx_switch_%d", i/perCabinet/2)}
	}
	return up
}

// gdxRoute is the expected route between two gdx hosts: one switch behind
// a shared first-level switch, three (through the gdx backbone) otherwise.
func gdxRoute(up map[string][]string, s, d string) []string {
	us, ud := up[s], up[d]
	if us[1] == ud[1] {
		return []string{us[0], us[1], ud[0]}
	}
	return []string{us[0], us[1], "gdx_backbone", ud[1], ud[0]}
}

func TestComputedRoutesMatchTableOnRadicalCluster(t *testing.T) {
	p, err := Parse(strings.NewReader(paperPlatformXML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	routesMatch(t, b, clusterRoutes(t, p))
}

// twoClusterXML joins two radical clusters through an ASroute over a WAN
// link, the scattering-mode shape of the paper.
const twoClusterXML = `<?xml version='1.0'?>
<platform version="3">
  <AS id="AS_grid" routing="Full">
    <cluster id="west" prefix="w-" suffix=".site" radical="0-3"
             power="1.17E9" bw="1.25E8" lat="16.67E-6"
             bb_bw="1.25E9" bb_lat="16.67E-6"/>
    <cluster id="east" prefix="e-" suffix=".site" radical="0-2"
             power="1E9" bw="1.25E8" lat="16.67E-6"/>
    <link id="wan" bandwidth="1.25E9" latency="5E-3"/>
    <ASroute src="west" dst="east"><link_ctn id="wan"/></ASroute>
  </AS>
</platform>`

func TestComputedRoutesMatchTableOnASRoute(t *testing.T) {
	p, err := Parse(strings.NewReader(twoClusterXML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	routesMatch(t, b, clusterRoutes(t, p))
}

func TestComputedRoutesMatchTableOnGdx(t *testing.T) {
	b, err := BuildGdx(40)
	if err != nil {
		t.Fatal(err)
	}
	up := gdxUplinks(40)
	routesMatch(t, b, func(s, d string) []string { return gdxRoute(up, s, d) })
}

func TestComputedRoutesMatchTableOnGrid5000(t *testing.T) {
	b, err := BuildGrid5000WithCores(6, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	up := gdxUplinks(12)
	for i := 0; i < 6; i++ {
		up[fmt.Sprintf("bordereau-%d.bordeaux.grid5000.fr", i)] = []string{
			fmt.Sprintf("bordereau_link_%d", i)}
	}
	site := func(h string) string { return strings.SplitN(h, "-", 2)[0] }
	routesMatch(t, b, func(s, d string) []string {
		switch {
		case site(s) != site(d):
			links := append([]string(nil), up[s]...)
			links = append(links, site(s)+"_backbone", "wan_bordeaux_orsay", site(d)+"_backbone")
			for i := len(up[d]) - 1; i >= 0; i-- {
				links = append(links, up[d][i])
			}
			return links
		case site(s) == "gdx":
			return gdxRoute(up, s, d)
		}
		return []string{up[s][0], "bordereau_backbone", up[d][0]}
	})
}

// TestExplicitRouteOverridesZones: an XML <route> between cluster hosts must
// win over the composed zone route.
func TestExplicitRouteOverridesZones(t *testing.T) {
	const doc = `<platform version="3">
  <AS id="AS0" routing="Full">
    <cluster id="c" prefix="n" suffix="" radical="0-1"
             power="1E9" bw="1.25E8" lat="1E-5"/>
    <link id="short" bandwidth="1E9" latency="1E-6"/>
    <route src="n0" dst="n1"><link_ctn id="short"/></route>
  </AS>
</platform>`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	k := b.Kernel
	r := k.Router().Route(k.Host("n0"), k.Host("n1"))
	if r == nil || len(r.Links) != 1 || r.Links[0].Name != "short" {
		t.Fatalf("override not applied: %+v", r)
	}
	// The reverse direction is symmetrical by default.
	rr := k.Router().Route(k.Host("n1"), k.Host("n0"))
	if rr == nil || len(rr.Links) != 1 || rr.Links[0].Name != "short" {
		t.Fatalf("symmetric override not applied: %+v", rr)
	}
}

// TestZoneRouterMemoryScalesLinearly is the structural half of the O(n)
// claim (the benchmark measures bytes): a 256-host cluster's zone router
// holds one attachment per host, one zone, and no per-pair state until a
// pair actually communicates.
func TestZoneRouterMemoryScalesLinearly(t *testing.T) {
	p := BordereauCustom(64, 1, BordereauPower)
	p.AS.Clusters[0].Radical = FormatRadical(64)
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	zr := b.zones
	if got := len(zr.explicit); got != 0 {
		t.Fatalf("explicit overrides = %d, want 0", got)
	}
	if got := len(zr.attach); got != 64 {
		t.Fatalf("attachments = %d, want 64", got)
	}
	if got := zr.Zones(); got != 1 {
		t.Fatalf("zones = %d, want 1", got)
	}
	if got := len(zr.spine); got > 1 {
		t.Fatalf("spine cache pre-populated with %d segments", got)
	}
	// Resolving every pair grows the spine cache by zones², not hosts².
	k := b.Kernel
	for _, s := range b.HostNames {
		for _, d := range b.HostNames {
			if s != d && k.Router().Route(k.Host(s), k.Host(d)) == nil {
				t.Fatalf("no route %s->%s", s, d)
			}
		}
	}
	if got := len(zr.spine); got != 1 {
		t.Fatalf("spine segments after full resolution = %d, want 1 (zones²)", got)
	}
}

// TestFatpipeClusterAttribute threads the XML sharing policies through to
// the kernel links.
func TestFatpipeClusterAttribute(t *testing.T) {
	const doc = `<platform version="3">
  <AS id="AS0" routing="Full">
    <cluster id="c" prefix="n" suffix="" radical="0-1"
             power="1E9" bw="1.25E8" lat="1E-5"
             bb_sharing_policy="FATPIPE"/>
    <link id="l" bandwidth="1E9" latency="1E-6" sharing_policy="FATPIPE"/>
  </AS>
</platform>`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Kernel.Link("c_backbone").Sharing; got != simx.SharingFatpipe {
		t.Fatalf("backbone sharing = %v", got)
	}
	if got := b.Kernel.Link("l").Sharing; got != simx.SharingFatpipe {
		t.Fatalf("link sharing = %v", got)
	}
	if got := b.Kernel.Link("c_link_0").Sharing; got != simx.SharingShared {
		t.Fatalf("host link sharing = %v", got)
	}
	const bad = `<platform version="3">
  <AS id="AS0" routing="Full">
    <link id="l" bandwidth="1E9" latency="1E-6" sharing_policy="HALFDUPLEX"/>
  </AS>
</platform>`
	pb, err := Parse(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(pb); err == nil {
		t.Fatal("expected error for unknown sharing policy")
	}
}
