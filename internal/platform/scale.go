package platform

import (
	"fmt"
	"strconv"

	"tireplay/internal/units"
)

// Scale is a uniform what-if transformation of a platform description: each
// non-zero factor multiplies the corresponding quantity everywhere it
// appears. The zero value (and a factor of 1) leaves the platform unchanged.
// Sweeps use it to derive the "2x faster CPUs" / "10x interconnect" style
// scenarios of Section 5 from one base description without editing XML.
type Scale struct {
	Latency   float64 // multiplies every link and backbone latency
	Bandwidth float64 // multiplies every link and backbone bandwidth
	Power     float64 // multiplies every host's per-core flop rate
}

// Scaled returns a deep copy of the platform with the scale applied. The
// receiver is never modified, so one parsed description can be shared
// read-only by concurrent sweep workers, each deriving its own scenario.
func (p *Platform) Scaled(s Scale) (*Platform, error) {
	out := &Platform{XMLName: p.XMLName, Version: p.Version}
	as, err := scaleAS(&p.AS, s)
	if err != nil {
		return nil, err
	}
	out.AS = *as
	return out, nil
}

func scaleAS(a *AS, s Scale) (*AS, error) {
	out := &AS{ID: a.ID, Routing: a.Routing}
	out.Clusters = append([]Cluster(nil), a.Clusters...)
	for i := range out.Clusters {
		c := &out.Clusters[i]
		var err error
		if c.Power, err = scaleQuantity(c.Power, s.Power); err != nil {
			return nil, fmt.Errorf("platform: cluster %q power: %w", c.ID, err)
		}
		if c.BW, err = scaleQuantity(c.BW, s.Bandwidth); err != nil {
			return nil, fmt.Errorf("platform: cluster %q bw: %w", c.ID, err)
		}
		if c.Lat, err = scaleQuantity(c.Lat, s.Latency); err != nil {
			return nil, fmt.Errorf("platform: cluster %q lat: %w", c.ID, err)
		}
		// Absent bb_* attributes stay absent: their defaults derive from the
		// (already scaled) host link values at instantiation time.
		if c.BBBw, err = scaleQuantity(c.BBBw, s.Bandwidth); err != nil {
			return nil, fmt.Errorf("platform: cluster %q bb_bw: %w", c.ID, err)
		}
		if c.BBLat, err = scaleQuantity(c.BBLat, s.Latency); err != nil {
			return nil, fmt.Errorf("platform: cluster %q bb_lat: %w", c.ID, err)
		}
	}
	out.Hosts = append([]HostDef(nil), a.Hosts...)
	for i := range out.Hosts {
		h := &out.Hosts[i]
		var err error
		if h.Power, err = scaleQuantity(h.Power, s.Power); err != nil {
			return nil, fmt.Errorf("platform: host %q power: %w", h.ID, err)
		}
	}
	out.Links = append([]LinkDef(nil), a.Links...)
	for i := range out.Links {
		l := &out.Links[i]
		var err error
		if l.Bandwidth, err = scaleQuantity(l.Bandwidth, s.Bandwidth); err != nil {
			return nil, fmt.Errorf("platform: link %q bandwidth: %w", l.ID, err)
		}
		if l.Latency, err = scaleQuantity(l.Latency, s.Latency); err != nil {
			return nil, fmt.Errorf("platform: link %q latency: %w", l.ID, err)
		}
	}
	out.Routes = copyRoutes(a.Routes)
	out.ASRoutes = copyASRoutes(a.ASRoutes)
	for i := range a.Subs {
		sub, err := scaleAS(&a.Subs[i], s)
		if err != nil {
			return nil, err
		}
		out.Subs = append(out.Subs, *sub)
	}
	return out, nil
}

func copyRoutes(rs []RouteDef) []RouteDef {
	out := append([]RouteDef(nil), rs...)
	for i := range out {
		out[i].Links = append([]LinkRef(nil), rs[i].Links...)
	}
	return out
}

func copyASRoutes(rs []ASRoute) []ASRoute {
	out := append([]ASRoute(nil), rs...)
	for i := range out {
		out[i].Links = append([]LinkRef(nil), rs[i].Links...)
	}
	return out
}

// scaleQuantity multiplies a quantity attribute by f, preserving empty
// attributes and identity factors verbatim (so an unscaled description
// round-trips byte-identically).
func scaleQuantity(v string, f float64) (string, error) {
	if v == "" || f == 0 || f == 1 {
		return v, nil
	}
	q, err := units.ParseQuantity(v)
	if err != nil {
		return "", err
	}
	return strconv.FormatFloat(q*f, 'G', -1, 64), nil
}
