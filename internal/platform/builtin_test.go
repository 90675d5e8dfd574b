package platform

import (
	"strings"
	"testing"
)

func TestParseBuiltinCanonicalizes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bordereau:8", "bordereau:8x1"},
		{"bordereau:8x1", "bordereau:8x1"},
		{" bordereau:93x4 ", "bordereau:93x4"},
	}
	for _, c := range cases {
		b, err := ParseBuiltin(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := b.String(); got != c.want {
			t.Fatalf("%q canonicalized to %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBuiltinRejects(t *testing.T) {
	for _, bad := range []string{
		"", "bordereau", "bordereau:", "bordereau:0", "bordereau:-3",
		"bordereau:8x0", "bordereau:8x", "bordereau:94", "gdx:8",
		"fat-tree:4", "bordereau:axb",
	} {
		if _, err := ParseBuiltin(bad); err == nil {
			t.Errorf("spec %q was accepted", bad)
		}
	}
}

func TestBuiltinBuildMatchesGenerator(t *testing.T) {
	b, err := ParseBuiltin("bordereau:5x2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := p.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 5 {
		t.Fatalf("built %d hosts, want 5", len(hosts))
	}
	want := BordereauWithCores(5, 2)
	wantHosts, err := want.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	for i := range hosts {
		if hosts[i] != wantHosts[i] {
			t.Fatalf("host %d: %q != generator's %q", i, hosts[i], wantHosts[i])
		}
	}

	bogus := &BuiltinSpec{Cluster: "nope", Nodes: 1, Cores: 1}
	if _, err := bogus.Build(); err == nil || !strings.Contains(err.Error(), "unknown builtin") {
		t.Fatalf("unknown cluster built: %v", err)
	}
}
