package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// Built-in platform specs name the generator platforms a service can
// instantiate without an uploaded XML description, in a canonical string
// form suitable as a cache key: two specs naming the same platform
// canonicalize to the same string, so a result cache keyed on the canonical
// spec answers both spellings from one entry.
//
// Grammar: "bordereau:<nodes>[x<cores>]" — the paper's bordereau cluster
// prefix, the base platform of the acquisition experiments. Generated
// topologies (fat-tree/torus/dragonfly) are not base-platform specs: they
// are a sweep axis (TopoSpec), and canonicalize through TopoSpec.String.

// BuiltinSpec is a parsed built-in platform spec.
type BuiltinSpec struct {
	// Cluster is the generator name; currently always "bordereau".
	Cluster string
	// Nodes and Cores size the cluster.
	Nodes, Cores int
}

// ParseBuiltin parses a built-in platform spec. The empty string is not a
// spec; callers pick their own default.
func ParseBuiltin(spec string) (*BuiltinSpec, error) {
	s := strings.TrimSpace(spec)
	name, rest, ok := strings.Cut(s, ":")
	if !ok || name != "bordereau" {
		return nil, fmt.Errorf("platform: builtin spec %q: want \"bordereau:<nodes>[x<cores>]\"", spec)
	}
	nodes, cores, err := parseNodesCores(rest, 1)
	if err != nil {
		return nil, fmt.Errorf("platform: builtin spec %q: %w", spec, err)
	}
	if nodes > BordereauNodes {
		return nil, fmt.Errorf("platform: builtin spec %q: bordereau has %d nodes", spec, BordereauNodes)
	}
	return &BuiltinSpec{Cluster: name, Nodes: nodes, Cores: cores}, nil
}

// parseNodesCores parses "<nodes>[x<cores>]" with a default core count.
func parseNodesCores(s string, defCores int) (int, int, error) {
	nodesStr, coresStr, hasCores := strings.Cut(s, "x")
	nodes, err := strconv.Atoi(nodesStr)
	if err != nil || nodes <= 0 {
		return 0, 0, fmt.Errorf("bad node count %q", nodesStr)
	}
	cores := defCores
	if hasCores {
		if cores, err = strconv.Atoi(coresStr); err != nil || cores <= 0 {
			return 0, 0, fmt.Errorf("bad core count %q", coresStr)
		}
	}
	return nodes, cores, nil
}

// String renders the canonical form of the spec, always with an explicit
// core count.
func (b *BuiltinSpec) String() string {
	return fmt.Sprintf("%s:%dx%d", b.Cluster, b.Nodes, b.Cores)
}

// Build returns the platform description of the spec. Descriptions are
// read-only in every consumer (sweeps deep-copy before scaling), so one
// built description can be shared by any number of concurrent replays.
func (b *BuiltinSpec) Build() (*Platform, error) {
	if b.Cluster != "bordereau" {
		return nil, fmt.Errorf("platform: unknown builtin cluster %q", b.Cluster)
	}
	return BordereauWithCores(b.Nodes, b.Cores), nil
}
