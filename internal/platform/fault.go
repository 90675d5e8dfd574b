package platform

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tireplay/internal/simx"
)

// FaultSpec is a parsed availability profile: the fail-stop and degradation
// clauses injected into a simulation. The textual mini-language (one spec is
// a comma-separated clause list) is shared by the replay and sweep command
// lines:
//
//	host:3@12.5          fail-stop the 4th deployed host at t=12.5s
//	host:c-5.me@12.5     the same, by platform host name
//	hosts:25%@60         fail-stop 25% of the deployed hosts at t=60
//	                     (seeded pseudo-random pick, deterministic)
//	link:0-3@5           fail every link of the route between the 1st and
//	                     4th deployed hosts at t=5
//	link:a>b@5           the same route fail-stop, by host names
//	bw:0.5@10-20         halve every link bandwidth over [10, 20)
//	cpu:0.25@30-45       quarter every host speed over [30, 45)
//	mtbf:3600            exponential random host fail-stops with a mean
//	                     time between failures of 3600s
//	seed:7               seed of the pseudo-random choices (default 1)
//
// "none" (or an empty string) parses to a nil spec: the fault-free run.
// Host and link indices refer to the deployment's host list in rank order,
// so "host:0" kills rank 0's host whatever the platform calls it.
type FaultSpec struct {
	HostFails []HostFault
	PctFails  []PctFault
	LinkFails []LinkFault
	Degrades  []Degradation
	MTBF      float64 // mean time between random host failures; 0 = none
	Seed      uint64  // pseudo-random seed; Parse defaults it to 1
}

// HostFault is one scheduled host fail-stop. Either Index (into the
// deployment host list) or Name addresses the host; Index is -1 when Name
// is used.
type HostFault struct {
	Index int
	Name  string
	At    float64
}

// PctFault fail-stops a deterministic pseudo-random Pct% of the deployed
// hosts at time At.
type PctFault struct {
	Pct float64
	At  float64
}

// LinkFault fail-stops every link of the route between two hosts, addressed
// like HostFault (indices are -1 when the names are set).
type LinkFault struct {
	SrcIndex, DstIndex int
	Src, Dst           string
	At                 float64
}

// Degradation scales every link bandwidth (Kind "bw") or every host speed
// (Kind "cpu") by Factor over the window [From, To).
type Degradation struct {
	Kind   string
	Factor float64
	From   float64
	To     float64
}

// ParseFaultSpec parses the fault mini-language. It returns (nil, nil) for
// an empty spec or the literal "none".
func ParseFaultSpec(text string) (*FaultSpec, error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.EqualFold(text, "none") {
		return nil, nil
	}
	s := &FaultSpec{Seed: 1}
	for _, clause := range strings.Split(text, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("platform: fault clause %q: want key:value", clause)
		}
		var err error
		switch key {
		case "host":
			err = s.parseHost(val)
		case "hosts":
			err = s.parsePct(val)
		case "link":
			err = s.parseLink(val)
		case "bw", "cpu":
			err = s.parseDegrade(key, val)
		case "mtbf":
			s.MTBF, err = parsePositive(val, "mtbf")
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("bad seed %q", val)
			}
		default:
			err = fmt.Errorf("unknown clause key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("platform: fault clause %q: %w", clause, err)
		}
	}
	return s, s.Validate()
}

// splitAt separates "value@time" on the LAST '@' (host names may contain
// '@' in principle; times never do).
func splitAt(val string) (string, float64, error) {
	i := strings.LastIndexByte(val, '@')
	if i < 0 {
		return "", 0, fmt.Errorf("missing @time")
	}
	t, err := strconv.ParseFloat(val[i+1:], 64)
	if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return "", 0, fmt.Errorf("bad time %q", val[i+1:])
	}
	if t == 0 {
		t = 0 // read -0 as 0: String would render its sign
	}
	return val[:i], t, nil
}

func isIndex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func (s *FaultSpec) parseHost(val string) error {
	sel, t, err := splitAt(val)
	if err != nil {
		return err
	}
	hf := HostFault{Index: -1, At: t}
	if isIndex(sel) {
		hf.Index, _ = strconv.Atoi(sel)
	} else if sel != "" {
		hf.Name = sel
	} else {
		return fmt.Errorf("empty host selector")
	}
	s.HostFails = append(s.HostFails, hf)
	return nil
}

func (s *FaultSpec) parsePct(val string) error {
	sel, t, err := splitAt(val)
	if err != nil {
		return err
	}
	sel, ok := strings.CutSuffix(sel, "%")
	if !ok {
		return fmt.Errorf("want <k>%%@time")
	}
	pct, err := strconv.ParseFloat(sel, 64)
	if err != nil || !(pct > 0 && pct <= 100) {
		return fmt.Errorf("bad percentage %q (want 0 < k <= 100)", sel)
	}
	s.PctFails = append(s.PctFails, PctFault{Pct: pct, At: t})
	return nil
}

func (s *FaultSpec) parseLink(val string) error {
	sel, t, err := splitAt(val)
	if err != nil {
		return err
	}
	lf := LinkFault{SrcIndex: -1, DstIndex: -1, At: t}
	// "a>b" addresses hosts by name (names routinely contain '-');
	// "i-j" addresses them by deployment index.
	if a, b, ok := strings.Cut(sel, ">"); ok {
		if a == "" || b == "" {
			return fmt.Errorf("empty endpoint in %q", sel)
		}
		lf.Src, lf.Dst = a, b
	} else if a, b, ok := strings.Cut(sel, "-"); ok && isIndex(a) && isIndex(b) {
		lf.SrcIndex, _ = strconv.Atoi(a)
		lf.DstIndex, _ = strconv.Atoi(b)
	} else {
		return fmt.Errorf("want <i>-<j> (indices) or <src>><dst> (names), got %q", sel)
	}
	s.LinkFails = append(s.LinkFails, lf)
	return nil
}

func (s *FaultSpec) parseDegrade(kind, val string) error {
	i := strings.LastIndexByte(val, '@')
	if i < 0 {
		return fmt.Errorf("missing @window")
	}
	f, err := strconv.ParseFloat(val[:i], 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return fmt.Errorf("bad factor %q (want > 0)", val[:i])
	}
	from, toS, ok := strings.Cut(val[i+1:], "-")
	if !ok {
		return fmt.Errorf("want @t1-t2 window")
	}
	t1, err1 := strconv.ParseFloat(from, 64)
	t2, err2 := strconv.ParseFloat(toS, 64)
	if err1 != nil || err2 != nil || math.IsNaN(t1) || math.IsNaN(t2) ||
		math.IsInf(t1, 0) || math.IsInf(t2, 0) || t1 < 0 || t2 <= t1 {
		return fmt.Errorf("bad window %q (want 0 <= t1 < t2)", val[i+1:])
	}
	s.Degrades = append(s.Degrades, Degradation{Kind: kind, Factor: f, From: t1, To: t2})
	return nil
}

func parsePositive(val, what string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q (want > 0)", what, val)
	}
	return f, nil
}

// Validate checks the spec's internal consistency; Parse calls it, manual
// constructors should too.
func (s *FaultSpec) Validate() error {
	if s == nil {
		return nil
	}
	if len(s.HostFails) == 0 && len(s.PctFails) == 0 && len(s.LinkFails) == 0 &&
		len(s.Degrades) == 0 && s.MTBF == 0 {
		return fmt.Errorf("platform: fault spec has no effect (no fail-stop or degradation clause)")
	}
	for _, d := range s.Degrades {
		if d.Kind != "bw" && d.Kind != "cpu" {
			return fmt.Errorf("platform: fault spec: unknown degradation kind %q", d.Kind)
		}
		if !(d.Factor > 0) || !(d.To > d.From) || d.From < 0 {
			return fmt.Errorf("platform: fault spec: bad %s degradation (factor %g, window [%g, %g))",
				d.Kind, d.Factor, d.From, d.To)
		}
	}
	return nil
}

// String renders the spec back into the mini-language, canonically (clause
// order: host, hosts, link, bw/cpu, mtbf, seed; a defaulted seed is
// omitted). A nil spec renders as "none".
func (s *FaultSpec) String() string {
	if s == nil {
		return "none"
	}
	var parts []string
	for _, hf := range s.HostFails {
		sel := hf.Name
		if hf.Index >= 0 {
			sel = strconv.Itoa(hf.Index)
		}
		parts = append(parts, fmt.Sprintf("host:%s@%g", sel, hf.At))
	}
	for _, pf := range s.PctFails {
		parts = append(parts, fmt.Sprintf("hosts:%g%%@%g", pf.Pct, pf.At))
	}
	for _, lf := range s.LinkFails {
		if lf.SrcIndex >= 0 {
			parts = append(parts, fmt.Sprintf("link:%d-%d@%g", lf.SrcIndex, lf.DstIndex, lf.At))
		} else {
			parts = append(parts, fmt.Sprintf("link:%s>%s@%g", lf.Src, lf.Dst, lf.At))
		}
	}
	for _, d := range s.Degrades {
		parts = append(parts, fmt.Sprintf("%s:%g@%g-%g", d.Kind, d.Factor, d.From, d.To))
	}
	if s.MTBF > 0 {
		parts = append(parts, fmt.Sprintf("mtbf:%g", s.MTBF))
	}
	if s.Seed != 1 {
		parts = append(parts, fmt.Sprintf("seed:%d", s.Seed))
	}
	return strings.Join(parts, ",")
}

// MarshalText renders the spec for JSON/text encoders (sweep scenarios embed
// fault specs in their JSON output).
func (s *FaultSpec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the mini-language in place; "none" yields the zero
// spec (callers wanting nil should use ParseFaultSpec).
func (s *FaultSpec) UnmarshalText(text []byte) error {
	p, err := ParseFaultSpec(string(text))
	if err != nil {
		return err
	}
	if p == nil {
		*s = FaultSpec{Seed: 1}
		return nil
	}
	*s = *p
	return nil
}

// splitmix64 is the deterministic pseudo-random generator behind the seeded
// clauses (hosts:k% picks, mtbf arrivals); hand-rolled so the stream is
// stable across Go releases, unlike math/rand.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// float64 returns a uniform draw in [0, 1).
func (r *splitmix64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// exp returns an exponential draw with the given mean.
func (r *splitmix64) exp(mean float64) float64 {
	return -mean * math.Log(1-r.float64())
}

// intn returns a uniform draw in [0, n). The modulo bias is irrelevant at
// simulation host counts.
func (r *splitmix64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// pctCount is how many hosts a k% clause kills: the rounded share, at least
// one (a positive percentage that rounds to zero still kills something).
func pctCount(n int, pct float64) int {
	c := int(float64(n)*pct/100 + 0.5)
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// pctPick selects count distinct indices out of n with a partial
// Fisher-Yates shuffle driven by rng; the result is in pick order.
func pctPick(n, count int, rng *splitmix64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < count; i++ {
		j := i + rng.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:count]
}

// resolveHost maps a host-fault selector onto a platform host name.
func resolveHost(index int, name string, hosts []string) (string, error) {
	if index >= 0 {
		if index >= len(hosts) {
			return "", fmt.Errorf("platform: fault host index %d out of range (deployment has %d hosts)", index, len(hosts))
		}
		return hosts[index], nil
	}
	return name, nil
}

// InjectFailStops schedules the spec's fail-stop clauses (host, hosts:k%,
// link, mtbf) into the kernel. hosts is the deployment's host list in rank
// order — the namespace of the spec's indices and the population of the
// percentage and MTBF clauses. Named hosts must exist in the kernel.
func (s *FaultSpec) InjectFailStops(k *simx.Kernel, hosts []string) error {
	if s == nil {
		return nil
	}
	for _, h := range hosts {
		if k.Host(h) == nil {
			return fmt.Errorf("platform: fault injection: deployment host %q not in platform", h)
		}
	}
	for _, hf := range s.HostFails {
		name, err := resolveHost(hf.Index, hf.Name, hosts)
		if err != nil {
			return err
		}
		if k.Host(name) == nil {
			return fmt.Errorf("platform: fault injection: unknown host %q", name)
		}
		k.FailHostAt(name, hf.At)
	}
	rng := &splitmix64{state: s.Seed}
	for _, pf := range s.PctFails {
		if len(hosts) == 0 {
			return fmt.Errorf("platform: hosts:%% fault with an empty deployment")
		}
		for _, i := range pctPick(len(hosts), pctCount(len(hosts), pf.Pct), rng) {
			k.FailHostAt(hosts[i], pf.At)
		}
	}
	for _, lf := range s.LinkFails {
		src, err := resolveHost(lf.SrcIndex, lf.Src, hosts)
		if err != nil {
			return err
		}
		dst, err := resolveHost(lf.DstIndex, lf.Dst, hosts)
		if err != nil {
			return err
		}
		if k.Host(src) == nil || k.Host(dst) == nil {
			return fmt.Errorf("platform: fault injection: unknown route endpoint %q or %q", src, dst)
		}
		k.FailRouteAt(src, dst, lf.At)
	}
	if s.MTBF > 0 {
		if len(hosts) == 0 {
			return fmt.Errorf("platform: mtbf fault with an empty deployment")
		}
		// Lazy recursive chain: each arrival fails one random deployed host
		// and schedules the next draw, so the infinite stream costs one
		// pending timer. The kernel stops popping timers once no process
		// can observe them.
		t := rng.exp(s.MTBF)
		var arm func(t float64)
		arm = func(t float64) {
			k.At(t, func() {
				k.FailHostAt(hosts[rng.intn(len(hosts))], t)
				arm(t + rng.exp(s.MTBF))
			})
		}
		arm(t)
	}
	return nil
}

// InjectDegradations schedules the spec's bw/cpu windows into the kernel.
// The checkpoint/restart policy injects only these and consumes the
// fail-stop clauses analytically (see replay.Ckpt).
func (s *FaultSpec) InjectDegradations(k *simx.Kernel) {
	if s == nil {
		return
	}
	for _, d := range s.Degrades {
		if d.Kind == "bw" {
			k.DegradeAllLinksAt(d.Factor, d.From, d.To)
		} else {
			k.DegradeAllHostsAt(d.Factor, d.From, d.To)
		}
	}
}

// Inject schedules every clause of the spec — fail-stops and degradations —
// into the kernel (the abort recovery policy).
func (s *FaultSpec) Inject(k *simx.Kernel, hosts []string) error {
	s.InjectDegradations(k)
	return s.InjectFailStops(k, hosts)
}

// FailStops reports whether the spec contains any fail-stop clause (as
// opposed to degradations only).
func (s *FaultSpec) FailStops() bool {
	return s != nil && (len(s.HostFails) > 0 || len(s.PctFails) > 0 ||
		len(s.LinkFails) > 0 || s.MTBF > 0)
}

// Arrivals returns the spec's failure-instant stream for the analytical
// checkpoint/restart model: the sorted explicit fail-stop times (host,
// hosts:k%, link — a k% clause is one global rewind however many hosts it
// takes down) merged with the lazy exponential MTBF stream. nHosts sizes
// the percentage clauses. The stream is deterministic for a given spec.
func (s *FaultSpec) Arrivals(nHosts int) *Arrivals {
	a := &Arrivals{nextExp: math.Inf(1)}
	if s == nil {
		return a
	}
	for _, hf := range s.HostFails {
		a.times = append(a.times, hf.At)
	}
	for _, pf := range s.PctFails {
		a.times = append(a.times, pf.At)
	}
	for _, lf := range s.LinkFails {
		a.times = append(a.times, lf.At)
	}
	sort.Float64s(a.times)
	if s.MTBF > 0 {
		a.mtbf = s.MTBF
		a.rng = splitmix64{state: s.Seed}
		a.nextExp = a.rng.exp(a.mtbf)
	}
	_ = nHosts // population size does not change the instants, only who dies
	return a
}

// Arrivals iterates failure instants in non-decreasing order; Next returns
// +Inf once the stream is exhausted (an MTBF stream never is).
type Arrivals struct {
	times   []float64
	i       int
	mtbf    float64
	rng     splitmix64
	nextExp float64
}

// Next pops the earliest remaining failure instant.
func (a *Arrivals) Next() float64 {
	if a.i < len(a.times) && a.times[a.i] <= a.nextExp {
		t := a.times[a.i]
		a.i++
		return t
	}
	if math.IsInf(a.nextExp, 1) {
		return math.Inf(1)
	}
	t := a.nextExp
	a.nextExp = t + a.rng.exp(a.mtbf)
	return t
}
