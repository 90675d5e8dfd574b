package platform

import (
	"fmt"

	"tireplay/internal/simx"
)

// The two Grid'5000 clusters used in the paper's evaluation (Section 6.1),
// with the calibrated values of Figure 5 for bordereau and scaled values for
// gdx (2.0 GHz vs 2.6 GHz Opterons).
const (
	// BordereauNodes is the size of the bordereau cluster.
	BordereauNodes = 93
	// BordereauPower is the calibrated per-core flop rate of a bordereau
	// node for the LU benchmark (Figure 5 of the paper).
	BordereauPower = 1.17e9
	// BordereauCores: dual-processor, dual-core AMD Opteron 2218.
	BordereauCores = 4

	// GdxNodes is the size of the gdx cluster.
	GdxNodes = 186
	// GdxPower scales the bordereau calibration by the clock ratio 2.0/2.6.
	GdxPower = BordereauPower * 2.0 / 2.6
	// GdxCores: dual-processor single-core AMD Opteron 246.
	GdxCores = 2
	// GdxCabinets is the number of cabinets; two cabinets share a switch.
	GdxCabinets = 18

	// GigaEthernetBw is the nominal bandwidth of a 1 Gb Ethernet link in
	// bytes per second.
	GigaEthernetBw = 1.25e8
	// TenGigabitBw is the nominal bandwidth of a 10 Gb link.
	TenGigabitBw = 1.25e9
	// ClusterLatency is the calibrated one-hop latency (Figure 5).
	ClusterLatency = 16.67e-6
	// WANLatency is the one-way latency of the dedicated 10 Gb network
	// between the two Grid'5000 sites.
	WANLatency = 5e-3
)

// Bordereau returns the platform description of the first nodes of the
// bordereau cluster: homogeneous nodes behind a single 10 Gb switch,
// matching Figure 5 of the paper.
func Bordereau(nodes int) *Platform {
	return BordereauWithCores(nodes, BordereauCores)
}

// BordereauWithCores is Bordereau with an explicit per-node core count; the
// paper's acquisition experiments restrict executions to one core per node,
// which cores=1 models.
func BordereauWithCores(nodes, cores int) *Platform {
	return BordereauCustom(nodes, cores, BordereauPower)
}

// BordereauCustom is Bordereau with explicit core count and per-core power:
// the builder calibration emits (Section 5 instantiates the platform file
// with the flop rate measured for the target application).
func BordereauCustom(nodes, cores int, power float64) *Platform {
	if nodes <= 0 || nodes > BordereauNodes {
		nodes = BordereauNodes
	}
	if cores < 1 {
		cores = 1
	}
	return &Platform{
		Version: "3",
		AS: AS{
			ID:      "AS_bordeaux",
			Routing: "Full",
			Clusters: []Cluster{{
				ID:      "bordereau",
				Prefix:  "bordereau-",
				Suffix:  ".bordeaux.grid5000.fr",
				Radical: FormatRadical(nodes),
				Power:   fmt.Sprintf("%G", power),
				Core:    fmt.Sprintf("%d", cores),
				BW:      "1.25E8",
				Lat:     "16.67E-6",
				BBBw:    "1.25E9",
				BBLat:   "16.67E-6",
			}},
		},
	}
}

// BuildBordereau instantiates the bordereau platform.
func BuildBordereau(nodes int) (*Build, error) {
	return Instantiate(Bordereau(nodes))
}

// BuildBordereauWithCores instantiates bordereau with an explicit core
// count.
func BuildBordereauWithCores(nodes, cores int) (*Build, error) {
	return Instantiate(BordereauWithCores(nodes, cores))
}

// BuildBordereauCustom instantiates bordereau with explicit core count and
// calibrated per-core power.
func BuildBordereauCustom(nodes, cores int, power float64) (*Build, error) {
	return Instantiate(BordereauCustom(nodes, cores, power))
}

// BuildGdx instantiates the gdx cluster with its hierarchical interconnect:
// nodes are spread over 18 cabinets, two cabinets share a first-level
// switch, and all first-level switches connect to a single second-level
// switch — so two nodes in distant cabinets communicate through three
// switches, as described in Section 6.1 of the paper.
func BuildGdx(nodes int) (*Build, error) {
	return BuildGdxWithCores(nodes, GdxCores)
}

// BuildGdxWithCores instantiates gdx with an explicit per-node core count.
func BuildGdxWithCores(nodes, cores int) (*Build, error) {
	b := newBuild()
	b.buildGdxInto(nodes, cores)
	return b, nil
}

// buildGdxInto constructs the gdx topology in the Build's kernel and returns
// its zone for inter-site routing. The cabinet pairs behind each
// first-level switch are nested zones of the gdx zone, so a composed
// same-switch route crosses one switch and a distant-cabinet route three.
func (b *Build) buildGdxInto(nodes, cores int) *Zone {
	if nodes <= 0 || nodes > GdxNodes {
		nodes = GdxNodes
	}
	if cores < 1 {
		cores = 1
	}
	k := b.Kernel
	zone := b.zones.NewZone("gdx", nil, k.AddLink("gdx_backbone", GigaEthernetBw, ClusterLatency))
	perCabinet := (nodes + GdxCabinets - 1) / GdxCabinets
	nSwitch := (GdxCabinets + 1) / 2
	switches := make([]*simx.Link, nSwitch)
	for i := range switches {
		switches[i] = k.AddLink(fmt.Sprintf("gdx_switch_%d", i), GigaEthernetBw, ClusterLatency)
	}
	groupZones := make([]*Zone, nSwitch)
	for i, sw := range switches {
		groupZones[i] = b.zones.NewZone(fmt.Sprintf("gdx_group_%d", i), zone, sw)
	}
	hosts := make([]string, 0, nodes)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("gdx-%d.orsay.grid5000.fr", i)
		h := k.AddHost(name, GdxPower, cores)
		hl := k.AddLink(fmt.Sprintf("gdx_link_%d", i), GigaEthernetBw, ClusterLatency)
		hosts = append(hosts, name)
		b.HostNames = append(b.HostNames, name)
		// Two cabinets share a first-level switch.
		b.zones.Attach(h, groupZones[i/perCabinet/2], hl)
	}
	b.byCluster["gdx"] = hosts
	return zone
}

// BuildGrid5000 instantiates both sites in one kernel, interconnected by the
// dedicated 10 Gb wide-area network — the platform of the Scattering
// acquisition modes (S-2 and SF-(2,v) in Table 2).
func BuildGrid5000(bordereauNodes, gdxNodes int) (*Build, error) {
	return BuildGrid5000WithCores(bordereauNodes, gdxNodes, 0)
}

// BuildGrid5000WithCores instantiates both sites with an explicit per-node
// core count (0 keeps each cluster's physical count).
func BuildGrid5000WithCores(bordereauNodes, gdxNodes, cores int) (*Build, error) {
	b := newBuild()
	bCores, gCores := BordereauCores, GdxCores
	if cores > 0 {
		bCores, gCores = cores, cores
	}
	bp := BordereauWithCores(bordereauNodes, bCores)
	bz, err := b.buildCluster(&bp.AS.Clusters[0])
	if err != nil {
		return nil, err
	}
	gz := b.buildGdxInto(gdxNodes, gCores)
	wan := b.Kernel.AddLink("wan_bordeaux_orsay", TenGigabitBw, WANLatency)
	b.zones.ConnectZones(bz, gz, wan)
	b.zones.ConnectZones(gz, bz, wan)
	return b, nil
}
