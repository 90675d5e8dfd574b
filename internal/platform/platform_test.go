package platform

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tireplay/internal/simx"
)

// procAlias shortens simulation process references in the tests below.
type procAlias = simx.Proc

// paperPlatformXML is the platform file of Figure 5 in the paper, verbatim.
const paperPlatformXML = `<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
  <AS id="AS_mysite" routing="Full">
    <cluster id="AS_mycluster"
             prefix="mycluster-" suffix=".mysite.fr"
             radical="0-3" power="1.17E9"
             bw="1.25E8" lat="16.67E-6"
             bb_bw="1.25E9" bb_lat="16.67E-6"/>
  </AS>
</platform>`

// paperDeploymentXML is the deployment file of Figure 6 in the paper.
const paperDeploymentXML = `<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
  <process host="mycluster-0.mysite.fr" function="p0"/>
  <process host="mycluster-1.mysite.fr" function="p1"/>
  <process host="mycluster-2.mysite.fr" function="p2"/>
  <process host="mycluster-3.mysite.fr" function="p3"/>
</platform>`

func TestParsePaperPlatform(t *testing.T) {
	p, err := Parse(strings.NewReader(paperPlatformXML))
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "3" {
		t.Errorf("version = %q", p.Version)
	}
	if p.AS.ID != "AS_mysite" || p.AS.Routing != "Full" {
		t.Errorf("AS = %+v", p.AS)
	}
	if len(p.AS.Clusters) != 1 {
		t.Fatalf("clusters = %d", len(p.AS.Clusters))
	}
	c := p.AS.Clusters[0]
	if c.Prefix != "mycluster-" || c.Suffix != ".mysite.fr" || c.Radical != "0-3" {
		t.Errorf("cluster = %+v", c)
	}
	if c.Power != "1.17E9" || c.BW != "1.25E8" || c.Lat != "16.67E-6" {
		t.Errorf("cluster rates = %+v", c)
	}
}

func TestParseDeploymentPaperFile(t *testing.T) {
	d, err := ParseDeployment(strings.NewReader(paperDeploymentXML))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Processes) != 4 {
		t.Fatalf("processes = %d", len(d.Processes))
	}
	for i, p := range d.Processes {
		wantHost := "mycluster-" + string(rune('0'+i)) + ".mysite.fr"
		if p.Host != wantHost || p.Function != "p"+string(rune('0'+i)) {
			t.Errorf("process %d = %+v", i, p)
		}
	}
}

func TestParseDeploymentWithArguments(t *testing.T) {
	const depl = `<platform version="3">
  <process host="h0" function="p1">
    <argument value="SG_process1.trace"/>
  </process>
</platform>`
	d, err := ParseDeployment(strings.NewReader(depl))
	if err != nil {
		t.Fatal(err)
	}
	args := d.Processes[0].Args()
	if len(args) != 1 || args[0] != "SG_process1.trace" {
		t.Fatalf("args = %v", args)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	bad := []string{
		`<platform version="3"><AS id="a" routing="Full"><cluster id="c" radical="zz" power="1e9" bw="1e8" lat="1e-5"/></AS></platform>`,
		`<platform version="3"><AS id="a" routing="Full"><cluster id="c" radical="0-3" bw="1e8" lat="1e-5"/></AS></platform>`,
		`<platform version="3"><AS id="a" routing="Full"><cluster radical="0-3" power="1e9" bw="1e8" lat="1e-5"/></AS></platform>`,
		`<platform version="3"><AS id="a" routing="Full"><host id="h"/></AS></platform>`,
		`<platform version="3"><AS id="a" routing="Full"><link id="l" bandwidth="1e8"/></AS></platform>`,
		`not xml at all`,
		`<platform version="3"><AS id="a" routing="Full"><host id="x" power="1e9"/><host id="y" power="1e9"/><route src="x" dst="y" symmetrical="maybe"/></AS></platform>`,
		`<platform version="3"><AS id="a" routing="Full"><ASroute src="c" dst="d" symmetrical="NOPE"/></AS></platform>`,
	}
	for i, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseRadical(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"0-3", []int{0, 1, 2, 3}},
		{"5", []int{5}},
		{"0,2,4-6", []int{0, 2, 4, 5, 6}},
		{"0-0", []int{0}},
	}
	for _, c := range cases {
		got, err := ParseRadical(c.in)
		if err != nil {
			t.Fatalf("ParseRadical(%q): %v", c.in, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("ParseRadical(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ParseRadical(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	for _, bad := range []string{"", "3-1", "a-b", "1,", "-", "1--3"} {
		if _, err := ParseRadical(bad); err == nil {
			t.Errorf("ParseRadical(%q): expected error", bad)
		}
	}
}

func TestFormatRadical(t *testing.T) {
	if FormatRadical(4) != "0-3" || FormatRadical(1) != "0" || FormatRadical(0) != "" {
		t.Fatalf("FormatRadical: %q %q %q", FormatRadical(4), FormatRadical(1), FormatRadical(0))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(paperPlatformXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if p2.AS.Clusters[0].Power != p.AS.Clusters[0].Power {
		t.Fatal("round trip lost cluster power")
	}
}

func TestDeploymentMarshalRoundTrip(t *testing.T) {
	d, err := RoundRobin([]string{"h0", "h1"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDeployment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Processes) != 4 || d2.Processes[3].Host != "h1" {
		t.Fatalf("round trip = %+v", d2.Processes)
	}
}

func TestInstantiatePaperPlatform(t *testing.T) {
	p, err := Parse(strings.NewReader(paperPlatformXML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.HostNames) != 4 {
		t.Fatalf("hosts = %v", b.HostNames)
	}
	if b.HostNames[0] != "mycluster-0.mysite.fr" {
		t.Fatalf("first host = %q", b.HostNames[0])
	}
	h := b.Kernel.Host("mycluster-2.mysite.fr")
	if h == nil || h.Speed != 1.17e9 {
		t.Fatalf("host 2 = %+v", h)
	}
	ch := b.ClusterHosts("AS_mycluster")
	if len(ch) != 4 {
		t.Fatalf("cluster hosts = %v", ch)
	}
}

func TestInstantiatedClusterCommunicates(t *testing.T) {
	p, err := Parse(strings.NewReader(paperPlatformXML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	k := b.Kernel
	src, dst := b.HostNames[0], b.HostNames[3]
	mb := k.NewMailbox()
	k.Spawn("s", k.Host(src), func(pr *procAlias) { pr.Send(mb, 1e6) })
	k.Spawn("r", k.Host(dst), func(pr *procAlias) { pr.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Latency = 16.67e-6 * 3 hops (link, backbone, link) = 5.001e-5;
	// bandwidth limited by the 1.25e8 host links: 1e6/1.25e8 = 8e-3.
	want := 3*16.67e-6 + 1e6/1.25e8
	if diff := end - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("transfer time = %g, want %g", end, want)
	}
}

func TestExplicitHostsLinksRoutes(t *testing.T) {
	const xmlDoc = `<platform version="3">
  <AS id="AS0" routing="Full">
    <host id="alpha" power="2E9" core="2"/>
    <host id="beta" power="1E9"/>
    <link id="l0" bandwidth="1E8" latency="1E-4"/>
    <route src="alpha" dst="beta"><link_ctn id="l0"/></route>
  </AS>
</platform>`
	p, err := Parse(strings.NewReader(xmlDoc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	k := b.Kernel
	if k.Host("alpha").Cores != 2 || k.Host("beta").Cores != 1 {
		t.Fatal("core counts wrong")
	}
	// The route is symmetrical by default: beta -> alpha must also work.
	mb := k.NewMailbox()
	k.Spawn("s", k.Host("beta"), func(pr *procAlias) { pr.Send(mb, 1e6) })
	k.Spawn("r", k.Host("alpha"), func(pr *procAlias) { pr.Recv(mb) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInstantiateRejectsMalformed: descriptions that parse but cannot be
// instantiated — a route over an unknown link or between undeclared hosts,
// a link or host declared twice — fail with a platform error naming the
// culprit, not a kernel panic.
func TestInstantiateRejectsMalformed(t *testing.T) {
	const hosts = `<host id="a" power="1E9"/><host id="b" power="1E9"/>`
	for _, tc := range []struct{ name, as, want string }{
		{"unknown link", hosts + `<route src="a" dst="b"><link_ctn id="nope"/></route>`,
			`unknown link "nope"`},
		{"undeclared host", hosts + `<link id="l" bandwidth="1E8" latency="1E-5"/>
			<route src="a" dst="ghost"><link_ctn id="l"/></route>`, `undeclared host`},
		{"duplicate link", `<link id="l" bandwidth="1E8" latency="1E-5"/>
			<link id="l" bandwidth="1E9" latency="1E-6"/>`, `duplicate link "l"`},
		{"cluster link reused", `<cluster id="c" prefix="n" suffix="" radical="0-1" power="1E9" bw="1E8" lat="1E-5"/>
			<link id="c_link_0" bandwidth="1E8" latency="1E-5"/>`, `duplicate link "c_link_0"`},
		{"duplicate host", `<cluster id="c" prefix="n" suffix="" radical="0-1" power="1E9" bw="1E8" lat="1E-5"/>
			<host id="n1" power="1E9"/>`, `duplicate host "n1"`},
	} {
		doc := `<platform version="3"><AS id="AS0" routing="Full">` + tc.as + `</AS></platform>`
		p, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := Instantiate(p); err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.HasPrefix(err.Error(), "platform: ") {
			t.Errorf("%s: err = %v, want a platform error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRouteSymmetricalAnyCase: symmetrical="No" suppresses the reverse
// route whatever its case, and absent or "yes" adds it.
func TestRouteSymmetricalAnyCase(t *testing.T) {
	for attr, reverse := range map[string]bool{
		"": true, `symmetrical="yes"`: true, `symmetrical="No"`: false, `symmetrical="NO"`: false,
	} {
		doc := `<platform version="3"><AS id="AS0" routing="Full">
			<host id="a" power="1E9"/><host id="b" power="1E9"/>
			<link id="l" bandwidth="1E8" latency="1E-5"/>
			<route src="a" dst="b" ` + attr + `><link_ctn id="l"/></route></AS></platform>`
		p, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%q: %v", attr, err)
		}
		b, err := Instantiate(p)
		if err != nil {
			t.Fatalf("%q: %v", attr, err)
		}
		k := b.Kernel
		if got := k.Router().Route(k.Host("b"), k.Host("a")) != nil; got != reverse {
			t.Errorf("%q: reverse route present = %v, want %v", attr, got, reverse)
		}
	}
}

func TestRoundRobinDeployments(t *testing.T) {
	hosts := []string{"h0", "h1", "h2", "h3"}
	d, err := RoundRobin(hosts, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Processes[0].Host != "h0" || d.Processes[4].Host != "h0" || d.Processes[5].Host != "h1" {
		t.Fatalf("round robin wrong: %+v", d.Processes)
	}

	// Folding factor 2: p0,p1 on h0; p2,p3 on h1; ...
	d2, err := RoundRobin(hosts, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Processes[0].Host != "h0" || d2.Processes[1].Host != "h0" || d2.Processes[2].Host != "h1" {
		t.Fatalf("folded deployment wrong: %+v", d2.Processes)
	}

	if _, err := RoundRobin(nil, 4, 1); err == nil {
		t.Fatal("expected error for empty host list")
	}
}

func TestScatterDeployment(t *testing.T) {
	g1 := []string{"a0", "a1"}
	g2 := []string{"b0", "b1"}
	d, err := Scatter([][]string{g1, g2}, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Processes) != 6 {
		t.Fatalf("processes = %d", len(d.Processes))
	}
	// 3 ranks per site.
	if d.Processes[0].Host != "a0" || d.Processes[3].Host != "b0" {
		t.Fatalf("scatter placement: %+v", d.Processes)
	}
	// Function names are contiguous ranks.
	for i, p := range d.Processes {
		if p.Function != "p"+itoa(i) {
			t.Fatalf("function %d = %q", i, p.Function)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

func TestWithTraceArgs(t *testing.T) {
	d, _ := RoundRobin([]string{"h0"}, 2, 1)
	d2, err := d.WithTraceArgs([]string{"SG_process0.trace", "SG_process1.trace"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Processes[1].Args(); len(got) != 1 || got[0] != "SG_process1.trace" {
		t.Fatalf("args = %v", got)
	}
	if _, err := d.WithTraceArgs([]string{"only-one"}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBuildBordereau(t *testing.T) {
	b, err := BuildBordereau(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.HostNames) != 8 {
		t.Fatalf("hosts = %d", len(b.HostNames))
	}
	h := b.Kernel.Host(b.HostNames[0])
	if h.Speed != BordereauPower || h.Cores != BordereauCores {
		t.Fatalf("host = %+v", h)
	}
}

func TestBuildGdxHierarchy(t *testing.T) {
	b, err := BuildGdx(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.HostNames) != 40 {
		t.Fatalf("hosts = %d", len(b.HostNames))
	}
	k := b.Kernel
	// Same cabinet pair: 1 switch on path (3 links, 3 latencies).
	// Host 0 and 1 are in cabinet 0 -> same group.
	mb := k.NewMailbox()
	k.Spawn("s", k.Host(b.HostNames[0]), func(p *procAlias) { p.Send(mb, 0) })
	k.Spawn("r", k.Host(b.HostNames[1]), func(p *procAlias) { p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * ClusterLatency; !closeEnough(end, want) {
		t.Fatalf("same-cabinet latency = %g, want %g", end, want)
	}

	// Distant cabinets: 3 switches on path (5 links worth of latency).
	b2, _ := BuildGdx(40)
	k2 := b2.Kernel
	mb2 := k2.NewMailbox()
	k2.Spawn("s", k2.Host(b2.HostNames[0]), func(p *procAlias) { p.Send(mb2, 0) })
	k2.Spawn("r", k2.Host(b2.HostNames[39]), func(p *procAlias) { p.Recv(mb2) })
	end2, err := k2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * ClusterLatency; !closeEnough(end2, want) {
		t.Fatalf("distant-cabinet latency = %g, want %g", end2, want)
	}
}

func TestBuildGrid5000WAN(t *testing.T) {
	b, err := BuildGrid5000(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.HostNames) != 8 {
		t.Fatalf("hosts = %d", len(b.HostNames))
	}
	k := b.Kernel
	bh := b.ClusterHosts("bordereau")[0]
	gh := b.ClusterHosts("gdx")[0]
	mb := k.NewMailbox()
	k.Spawn("s", k.Host(bh), func(p *procAlias) { p.Send(mb, 0) })
	k.Spawn("r", k.Host(gh), func(p *procAlias) { p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Inter-site latency dominated by the WAN link.
	if end < WANLatency {
		t.Fatalf("inter-site latency %g < WAN latency %g", end, WANLatency)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9+1e-6*b
}

func TestHostsMatchesInstantiate(t *testing.T) {
	p := twoClusters()
	hosts, err := p.Hosts()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, b.HostNames) {
		t.Fatalf("Hosts() = %v, Instantiate order = %v", hosts, b.HostNames)
	}
}

// TestInstantiateRejectsBadQuantities: a link bandwidth or host power that is
// not positive and finite, or a link latency that is negative or not finite,
// fails the load with a platform error naming the link or host, for explicit
// links and hosts and for a cluster's links and hosts alike. Before the
// check each of them parsed, and the replay panicked in the kernel.
func TestInstantiateRejectsBadQuantities(t *testing.T) {
	link := func(bw, lat string) string {
		return `<link id="l" bandwidth="` + bw + `" latency="` + lat + `"/>`
	}
	host := func(power string) string { return `<host id="h" power="` + power + `"/>` }
	cluster := func(power, bw, lat, bbBw string) string {
		return `<cluster id="c" prefix="n" suffix="" radical="0-1" power="` + power +
			`" bw="` + bw + `" lat="` + lat + `" bb_bw="` + bbBw + `"/>`
	}
	for _, tc := range []struct{ as, want string }{
		{link("0", "1E-5"), `platform: link "l": bandwidth 0 is not positive and finite`},
		{link("-1", "1E-5"), `platform: link "l": bandwidth -1 is not positive and finite`},
		{link("NaN", "1E-5"), `platform: link "l": bandwidth NaN is not positive and finite`},
		{link("Inf", "1E-5"), `platform: link "l": bandwidth +Inf is not positive and finite`},
		{link("1E8", "-1"), `platform: link "l": latency -1 is negative or not finite`},
		{link("1E8", "NaN"), `platform: link "l": latency NaN is negative or not finite`},
		{link("1E8", "Inf"), `platform: link "l": latency +Inf is negative or not finite`},
		{host("0"), `platform: host "h": power 0 is not positive and finite`},
		{host("-1"), `platform: host "h": power -1 is not positive and finite`},
		{host("NaN"), `platform: host "h": power NaN is not positive and finite`},
		{cluster("0", "1E8", "1E-5", "1E9"), `platform: host "n0": power 0 is not positive and finite`},
		{cluster("1E9", "0", "1E-5", "1E9"), `platform: link "c_link_0": bandwidth 0 is not positive and finite`},
		{cluster("1E9", "1E8", "-1E-5", "1E9"), `platform: link "c_backbone": latency -1e-05 is negative or not finite`},
		{cluster("1E9", "1E8", "1E-5", "0"), `platform: link "c_backbone": bandwidth 0 is not positive and finite`},
	} {
		doc := `<platform version="3"><AS id="AS0" routing="Full">` + tc.as + `</AS></platform>`
		p, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.as, err)
		}
		if _, err := Instantiate(p); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.as, err, tc.want)
		}
	}
	// A zero latency is a valid link.
	p, err := Parse(strings.NewReader(`<platform version="3"><AS id="AS0" routing="Full">` +
		link("1E8", "0") + `</AS></platform>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(p); err != nil {
		t.Fatalf("zero latency: %v", err)
	}
}
