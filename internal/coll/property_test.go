package coll

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// allSchedules generates every rank's schedule for one collective.
func allSchedules(kind Kind, alg Algorithm, n int, vcomm, vcomp float64) [][]Step {
	out := make([][]Step, n)
	for r := 0; r < n; r++ {
		out[r] = AppendSchedule(nil, kind, alg, r, n, vcomm, vcomp)
	}
	return out
}

// rendezvous identifies one directed message slot.
type rendezvous struct {
	round, src, dst int
}

// simulate executes the schedules under the replay's blocking semantics —
// OpSend and OpRecv block until the peer arrives, OpShift posts its send
// asynchronously then blocks on its receive — and reports whether every
// rank runs to completion.
func simulate(schedules [][]Step) error {
	n := len(schedules)
	pc := make([]int, n)
	shiftPosted := make([]bool, n)
	posted := make(map[rendezvous]int)
	done := 0
	for {
		progress := false
		for r := 0; r < n; r++ {
			if pc[r] >= len(schedules[r]) {
				continue
			}
			s := schedules[r][pc[r]]
			advance := func() {
				pc[r]++
				shiftPosted[r] = false
				progress = true
				if pc[r] == len(schedules[r]) {
					done++
				}
			}
			switch s.Op {
			case OpCompute:
				advance()
			case OpShift:
				if !shiftPosted[r] {
					posted[rendezvous{s.Round, r, s.To}]++
					shiftPosted[r] = true
					progress = true
				}
				if posted[rendezvous{s.Round, s.From, r}] > 0 {
					posted[rendezvous{s.Round, s.From, r}]--
					advance()
				}
			case OpRecv:
				if posted[rendezvous{s.Round, s.From, r}] > 0 {
					posted[rendezvous{s.Round, s.From, r}]--
					advance()
					continue
				}
				// A blocking sender sitting at the matching send completes
				// the rendezvous; both sides move on.
				src := s.From
				if pc[src] < len(schedules[src]) {
					ps := schedules[src][pc[src]]
					if ps.Op == OpSend && ps.To == r && ps.Round == s.Round {
						pc[src]++
						if pc[src] == len(schedules[src]) {
							done++
						}
						advance()
					}
				}
			case OpSend:
				// Passive: the matching receiver's turn advances both.
			}
		}
		if done == n {
			return nil
		}
		if !progress {
			return fmt.Errorf("deadlock: %d/%d ranks finished, pcs %v", done, n, pc)
		}
	}
}

// combos yields every (kind, concrete algorithm) pair.
func combos() [][2]any {
	var out [][2]any
	for kind := Kind(0); kind < NumKinds; kind++ {
		for _, alg := range Supported(kind) {
			out = append(out, [2]any{kind, alg})
		}
	}
	return out
}

// TestSchedulesPairOffAndComplete is the core property over all algorithms
// and world sizes 2..17 (powers of two and everything between): the sends
// and receives of a collective pair off exactly per (round, src, dst) slot,
// no rank deadlocks under blocking execution, rounds stay inside the
// declared span, and the bytes put on the network match the cost model.
// It also pins the order rule the replay matches collective messages by:
// each rank's rounds never decrease, and for every directed pair the
// sender's sends and the receiver's receives list the same rounds in the
// same order, so a pair's k-th send meets its k-th receive in one FIFO
// mailbox.
func TestSchedulesPairOffAndComplete(t *testing.T) {
	const vcomm = 1000.0
	for _, c := range combos() {
		kind, alg := c[0].(Kind), c[1].(Algorithm)
		for n := 2; n <= 17; n++ {
			name := fmt.Sprintf("%s/%s/n=%d", kind, alg, n)
			schedules := allSchedules(kind, alg, n, vcomm, 0)
			rounds := Rounds(kind, alg, n)

			sends := make(map[rendezvous]int)
			recvs := make(map[rendezvous]int)
			sendVolume := make(map[rendezvous]float64)
			sendOrder := make(map[[2]int][]int) // (src, dst) -> rounds of src's sends
			recvOrder := make(map[[2]int][]int) // (src, dst) -> rounds of dst's receives
			total := 0.0
			maxRound := -1
			for r, steps := range schedules {
				last := 0
				for _, s := range steps {
					if s.Op == OpCompute {
						t.Fatalf("%s: unexpected compute step with vcomp=0", name)
					}
					if s.Round < 0 || s.Round >= rounds {
						t.Fatalf("%s: rank %d step round %d outside [0,%d)", name, r, s.Round, rounds)
					}
					if s.Round < last {
						t.Fatalf("%s: rank %d steps back from round %d to %d", name, r, last, s.Round)
					}
					last = s.Round
					if s.Round > maxRound {
						maxRound = s.Round
					}
					if s.Op == OpSend || s.Op == OpShift {
						if s.To < 0 || s.To >= n || s.To == r {
							t.Fatalf("%s: rank %d sends to %d", name, r, s.To)
						}
						if s.Volume < 0 {
							t.Fatalf("%s: rank %d negative volume %g", name, r, s.Volume)
						}
						sends[rendezvous{s.Round, r, s.To}]++
						sendVolume[rendezvous{s.Round, r, s.To}] = s.Volume
						sendOrder[[2]int{r, s.To}] = append(sendOrder[[2]int{r, s.To}], s.Round)
						total += s.Volume
					}
					if s.Op == OpRecv || s.Op == OpShift {
						if s.From < 0 || s.From >= n || s.From == r {
							t.Fatalf("%s: rank %d receives from %d", name, r, s.From)
						}
						recvs[rendezvous{s.Round, s.From, r}]++
						recvOrder[[2]int{s.From, r}] = append(recvOrder[[2]int{s.From, r}], s.Round)
					}
				}
			}
			for pair, sent := range sendOrder {
				if got := recvOrder[pair]; !slices.Equal(sent, got) {
					t.Fatalf("%s: p%d sends to p%d in rounds %v, p%d receives in rounds %v",
						name, pair[0], pair[1], sent, pair[1], got)
				}
			}
			if maxRound != rounds-1 {
				t.Fatalf("%s: highest used round %d, declared %d rounds", name, maxRound, rounds)
			}
			for rv, c := range sends {
				if c > 1 {
					t.Fatalf("%s: %d sends in one round slot %+v", name, c, rv)
				}
				if recvs[rv] != c {
					t.Fatalf("%s: send %+v (%g bytes) has no matching receive",
						name, rv, sendVolume[rv])
				}
			}
			for rv, c := range recvs {
				if sends[rv] != c {
					t.Fatalf("%s: receive %+v has no matching send", name, rv)
				}
			}
			// Chunked algorithms accumulate bytes/n terms; allow float
			// summation error only.
			if want := CostBytes(kind, alg, n, vcomm); math.Abs(total-want) > 1e-9*want {
				t.Fatalf("%s: schedules move %g bytes, cost model says %g", name, total, want)
			}
			if err := simulate(schedules); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestSchedulesDeterministic pins that schedule generation is a pure
// function of (kind, alg, rank, n, volumes): every rank derives its side of
// a collective on its own, so the sides agree only if each generation is
// the same.
func TestSchedulesDeterministic(t *testing.T) {
	for _, c := range combos() {
		kind, alg := c[0].(Kind), c[1].(Algorithm)
		for _, n := range []int{2, 5, 16, 17} {
			a := allSchedules(kind, alg, n, 4096, 10)
			b := allSchedules(kind, alg, n, 4096, 10)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s/n=%d: schedules differ between generations", kind, alg, n)
			}
		}
	}
}

// TestReductionComputeStep: the traced local reduction work lands as one
// trailing compute step on every rank, for every reduce-family algorithm.
func TestReductionComputeStep(t *testing.T) {
	for _, kind := range []Kind{KindReduce, KindAllReduce} {
		for _, alg := range Supported(kind) {
			for _, n := range []int{1, 2, 7} {
				for r := 0; r < n; r++ {
					steps := AppendSchedule(nil, kind, alg, r, n, 1e5, 2e6)
					if len(steps) == 0 {
						t.Fatalf("%s/%s/n=%d rank %d: empty schedule", kind, alg, n, r)
					}
					last := steps[len(steps)-1]
					if last.Op != OpCompute || last.Volume != 2e6 {
						t.Fatalf("%s/%s/n=%d rank %d: last step %+v, want compute 2e6",
							kind, alg, n, r, last)
					}
					for _, s := range steps[:len(steps)-1] {
						if s.Op == OpCompute {
							t.Fatalf("%s/%s/n=%d rank %d: interior compute step", kind, alg, n, r)
						}
					}
				}
			}
		}
	}
}

// TestSingleRankCollectivesAreLocal: a world of one needs no communication.
func TestSingleRankCollectivesAreLocal(t *testing.T) {
	for _, c := range combos() {
		kind, alg := c[0].(Kind), c[1].(Algorithm)
		steps := AppendSchedule(nil, kind, alg, 0, 1, 1e6, 0)
		if len(steps) != 0 {
			t.Fatalf("%s/%s: n=1 schedule has %d steps", kind, alg, len(steps))
		}
		if r := Rounds(kind, alg, 1); r != 0 {
			t.Fatalf("%s/%s: n=1 spans %d rounds", kind, alg, r)
		}
	}
}
