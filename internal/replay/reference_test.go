package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// The tests in this file hold the replay to the outputs of three reference
// implementations that no longer exist: the string-keyed mailbox path, the
// per-pair routing tables, and the frozen star collective handlers that
// predate internal/coll. Each reference was run on its test's fixture at the
// last commit that had it, where the default path produced the same bytes,
// and its output is pinned here: the simulated time's float bits and the
// SHA-256 of the timed trace. The golden corpus (internal/sweep) pins the
// same paths across topologies, faults and collective algorithms. A change
// meant to move these outputs moves the corpus too; a failure here prints
// the values to pin.

// refOutput is what a reference produced on one fixture.
type refOutput struct {
	makespan uint64 // math.Float64bits of the simulated time
	trace    string // hex SHA-256 of the timed trace
}

// refStress4 is internStressTrace on 4 bordereau hosts, the output the
// string-keyed mailboxes and the star handlers both gave.
var refStress4 = refOutput{0x3fc4976275adc84b, "f59b02b4006885218ef3ef5f78a3802a6e636abedf8e3707a8243ba391fbc6ba"}

// requirePinnedArch skips off amd64: the references pin float bits as
// compiled there, and other targets may fuse multiply-adds.
func requirePinnedArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("the references pin float bits as compiled for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// timedRun replays perRank on a fresh b under smpi.Default with the given
// collectives, one rank per host in order, and returns the simulated time
// and the timed trace.
func timedRun(t *testing.T, b *platform.Build, cc coll.Config, perRank [][]trace.Action) (float64, []byte) {
	t.Helper()
	d, err := platform.RoundRobin(b.HostNames, len(perRank), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	cfg := Config{Model: smpi.Default(), TimedTracer: tw, Collectives: cc}
	res, err := RunActions(b, d, cfg, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return res.SimulatedTime, buf.Bytes()
}

// checkReference fails unless the replay reproduced want bit for bit.
func checkReference(t *testing.T, name string, makespan float64, timed []byte, want refOutput) {
	t.Helper()
	if len(timed) == 0 {
		t.Fatalf("%s: empty timed trace — tracer not wired", name)
	}
	sum := sha256.Sum256(timed)
	got := refOutput{math.Float64bits(makespan), hex.EncodeToString(sum[:])}
	if got != want {
		t.Errorf("%s: makespan %v, trace %s; the reference gave %v, %s (got refOutput{%#x, %q})",
			name, makespan, got.trace, math.Float64frombits(want.makespan), want.trace,
			got.makespan, got.trace)
	}
}

func bordereau(t *testing.T, n int) *platform.Build {
	t.Helper()
	b, err := platform.BuildBordereau(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInternedMailboxesMatchStringKeyed: interned mailbox IDs address the
// same rendezvous the string-keyed names did, so Figure 1 and the stress
// trace (same-pair FIFO queues, Irecv/wait, eager and rendezvous sends,
// collective rounds) replay to the string-keyed path's output.
func TestInternedMailboxesMatchStringKeyed(t *testing.T) {
	requirePinnedArch(t)
	for _, c := range []struct {
		name, doc string
		want      refOutput
	}{
		{"figure1", figure1Trace, refOutput{0x3fa367d172250cc3, "f2a3360fe2c472173024d2abcdaa5221da2087e0b692b760cfd42e99b84ff517"}},
		{"stress", internStressTrace, refStress4},
	} {
		ms, timed := timedRun(t, bordereau(t, 4), coll.Config{}, perRankActions(t, c.doc, 4))
		checkReference(t, c.name, ms, timed, c.want)
	}
}

// TestInternedCollectiveRoundIsolation replays back-to-back collective
// rounds with rank-skewed compute so fast ranks run ahead: a contribution of
// round r+1 leaking into round r would deadlock the replay or move its
// output off the string-keyed path's.
func TestInternedCollectiveRoundIsolation(t *testing.T) {
	requirePinnedArch(t)
	var sb strings.Builder
	const n = 4
	for r := 0; r < n; r++ {
		sb.WriteString(trace.Action{Proc: r, Type: trace.CommSize, Peer: -1, Volume: n}.Format())
		sb.WriteByte('\n')
		for round := 0; round < 6; round++ {
			sb.WriteString(trace.Action{Proc: r, Type: trace.Compute, Peer: -1,
				Volume: float64(1+r) * 5e5}.Format())
			sb.WriteByte('\n')
			sb.WriteString(trace.Action{Proc: r, Type: trace.AllReduce, Peer: -1,
				Volume: 1e5, Volume2: 1e5}.Format())
			sb.WriteByte('\n')
			sb.WriteString(trace.Action{Proc: r, Type: trace.Bcast, Peer: -1, Volume: 2e5}.Format())
			sb.WriteByte('\n')
		}
	}
	ms, timed := timedRun(t, bordereau(t, n), coll.Config{}, perRankActions(t, sb.String(), n))
	checkReference(t, "rounds", ms, timed, refOutput{0x3fb21ad73afd771c, "f9e7e3932c830d2529103088b329b4a07f5c14df21288bed642257dde9af22f2"})
}

// TestCollectiveAlgorithmsMatchStringKeyedPath extends the mailbox check to
// every algorithm, multi-round ones included: whatever the schedule, the
// pair mailboxes reproduce the string-keyed path's output.
func TestCollectiveAlgorithmsMatchStringKeyedPath(t *testing.T) {
	requirePinnedArch(t)
	const n = 6
	doc := collectiveDoc(n,
		"compute 1e6",
		"bcast 1e5",
		"reduce 1e5 2e5",
		"allReduce 1e5 2e5",
		"gather 4096",
		"allGather 4096",
		"allToAll 2048",
		"scatter 8192",
		"barrier",
		"bcast 2e6",
	)
	for _, c := range []struct {
		spec string
		want refOutput
	}{
		{"", refOutput{0x3fbc6a65cb8ef3dd, "a823a15f44d5da96799a2e21fb68834cc6f3a8e6295ebb849e3937299c886e9c"}},
		{"binomial", refOutput{0x3fb1942b6d7e881b, "e1abd25f80cb1eccbe73570960b07483c15924a7b47a4525e944a09305b330f3"}},
		{"allReduce=rdb", refOutput{0x3fbb6008b0f1c354, "bcb0076ca4c70d134fded84244ed26a919d6a5dc4a80b2ba3783741976e51712"}},
		{"allReduce=ring", refOutput{0x3fbaf967f0dea24f, "691fb410c690659e9a425d2a96538d4d8f7cb636385e60d7ab4fa426fee66a5c"}},
		{"barrier=tree", refOutput{0x3fbc5d48c93c4fe8, "40ba9963a4051ff6f9b05e6dfde0117ebddeb5126be9ddaff678d0dc92fd4e15"}},
		{"allGather=ring", refOutput{0x3fbc0e40f5f84c24, "5fdc061c09a571244bbf339833f48356c044fb5ace668e0f72509476676c85b7"}},
		{"auto", refOutput{0x3fbad362508e8e12, "b6eb86ab78fc07af41dd94e2fc01b69310b126c40bbabd951bcd6d7d918fa274"}},
	} {
		ms, timed := replayCollectives(t, doc, n, coll.MustParseSpec(c.spec))
		checkReference(t, fmt.Sprintf("coll=%q", c.spec), ms, timed, c.want)
	}
}

// TestComputedRoutingMatchesTableOnNPB: routes composed from the zone
// hierarchy feed the max-min solver the links the per-pair tables held, in
// the same order, so LU and CG on 8 ranks spread over both grid5000 sites
// (bordereau, gdx's nested switch zones, and the WAN between them) replay
// to the tables' output.
func TestComputedRoutingMatchesTableOnNPB(t *testing.T) {
	requirePinnedArch(t)
	for _, c := range []struct {
		fixture string
		want    refOutput
	}{
		{"LU", refOutput{0x401b4f56a967d114, "a1c6c2b0927df38bfc728a2b673a1cade45ec989442ac39e3dbd4cd320f66f65"}},
		{"CG", refOutput{0x403f8215c4665d18, "f416386063c28ab0351e790b867d7ed44fe471ed19ae1f3d426dd23e3154dec1"}},
	} {
		b, err := platform.BuildGrid5000(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		ms, timed := timedRun(t, b, coll.Config{}, npbTraces(t, c.fixture, 8))
		checkReference(t, c.fixture, ms, timed, c.want)
	}
}

// TestComputedRoutingMatchesTableOnStressTrace replays the stress trace on
// 4 gdx hosts in four cabinets: two pairs share a first-level switch and the
// others cross three switches, as the tables spelled out.
func TestComputedRoutingMatchesTableOnStressTrace(t *testing.T) {
	requirePinnedArch(t)
	b, err := platform.BuildGdx(4)
	if err != nil {
		t.Fatal(err)
	}
	ms, timed := timedRun(t, b, coll.Config{}, perRankActions(t, internStressTrace, 4))
	checkReference(t, "gdx", ms, timed, refOutput{0x3fc580d0b692c2e0, "93a61de03598a88acf07fa1c67fe1463ecf5a4ec2be602058049b7322f22fbcc"})
}

// TestDefaultCollectivesMatchLegacyHandlers is the back-compat gate for the
// collective schedules: on LU and CG, the default (linear) collectives
// reproduce the output of the hard-coded star through rank 0 that came
// before internal/coll.
func TestDefaultCollectivesMatchLegacyHandlers(t *testing.T) {
	requirePinnedArch(t)
	for _, c := range []struct {
		fixture string
		want    refOutput
	}{
		{"LU", refOutput{0x3fc5a3c0705c637b, "8ef35ccdc1e174dd9d98a48202c22a6b157aefbafddb25dc73d573329afb7cc0"}},
		{"CG", refOutput{0x3fe63fcd75994f04, "ed691cf3620920efcd102f1ecaa75c7d9bc4dd512075df6f739d81baeb721e97"}},
	} {
		ms, timed := timedRun(t, bordereau(t, 8), coll.Config{}, npbTraces(t, c.fixture, 8))
		checkReference(t, c.fixture, ms, timed, c.want)
	}
}

// TestLegacyEquivalenceOnStressTrace: the stress trace, which mixes every
// star-era collective with point-to-point traffic and request queues,
// replays under an explicit "linear" spec to the frozen star handlers'
// output.
func TestLegacyEquivalenceOnStressTrace(t *testing.T) {
	requirePinnedArch(t)
	ms, timed := timedRun(t, bordereau(t, 4), coll.MustParseSpec("linear"), perRankActions(t, internStressTrace, 4))
	checkReference(t, "linear", ms, timed, refStress4)
}
