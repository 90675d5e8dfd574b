package platform

import (
	"reflect"
	"testing"
)

// twoClusters builds a description with two clusters joined by a wide-area
// ASroute (the Grid'5000 shape of the Scattering modes).
func twoClusters() *Platform {
	return &Platform{
		Version: "3",
		AS: AS{
			ID:      "AS_root",
			Routing: "Full",
			Clusters: []Cluster{
				{ID: "alpha", Prefix: "a-", Radical: "0-2", Power: "1E9", BW: "1.25E8", Lat: "1E-5"},
				{ID: "beta", Prefix: "b-", Radical: "0-1", Power: "1E9", BW: "1.25E8", Lat: "1E-5"},
			},
			Links:    []LinkDef{{ID: "wan", Bandwidth: "1.25E9", Latency: "5E-3"}},
			ASRoutes: []ASRoute{{Src: "alpha", Dst: "beta", Links: []LinkRef{{ID: "wan"}}}},
		},
	}
}

func TestScaledIdentityRoundTrips(t *testing.T) {
	p := twoClusters()
	s, err := p.Scaled(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, s) {
		t.Fatalf("identity scale changed the description:\n%+v\nvs\n%+v", p, s)
	}
	// The copy must be deep: mutating it cannot touch the original.
	s.AS.Clusters[0].Power = "2E9"
	s.AS.ASRoutes[0].Links[0].ID = "other"
	if p.AS.Clusters[0].Power != "1E9" || p.AS.ASRoutes[0].Links[0].ID != "wan" {
		t.Fatal("Scaled shares memory with its receiver")
	}
}

func TestScaledAppliesFactors(t *testing.T) {
	p := twoClusters()
	p.AS.Hosts = []HostDef{{ID: "lone", Power: "2E9"}}
	s, err := p.Scaled(Scale{Latency: 0.5, Bandwidth: 10, Power: 2})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct{ got, want string }{
		{s.AS.Clusters[0].Power, "2E+09"},
		{s.AS.Clusters[0].BW, "1.25E+09"},
		{s.AS.Clusters[0].Lat, "5E-06"},
		{s.AS.Hosts[0].Power, "4E+09"},
		{s.AS.Links[0].Bandwidth, "1.25E+10"},
		{s.AS.Links[0].Latency, "0.0025"},
	}
	for i, c := range checks {
		if c.got != c.want {
			t.Fatalf("check %d: got %q, want %q", i, c.got, c.want)
		}
	}
	// The scaled description must still instantiate.
	if _, err := Instantiate(s); err != nil {
		t.Fatal(err)
	}
}
