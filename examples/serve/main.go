// serve is the walkthrough — and the CI smoke harness — of the resident
// sweep daemon (cmd/tiserved). It exercises the service the way production
// would, asserting the contracts on the way:
//
//  1. boot tiserved on an ephemeral port and wait for /healthz
//  2. upload an NPB LU trace fixture (content-addressed: re-upload dedups)
//  3. run an 8-cell collective-algorithm sweep twice — the second answer
//     must be a 100% cache hit, byte-identical, with zero extra replay
//  4. fire identical concurrent fresh requests — they must coalesce onto
//     one kernel run
//  5. flood a 1-slot/1-queue daemon with distinct requests — overflow must
//     shed with 429 + Retry-After while admitted work completes
//  6. run an abort-policy fault sweep — a fail-stop that kills a rank must
//     answer 200 with a diagnosed err row, and its blocked survivors must
//     not outlive the run
//  7. SIGTERM the daemon — it must drain and exit 0, and with -leakcheck
//     it proves no goroutine outlived shutdown (aborted ranks included)
//
// Run with: go run ./examples/serve
// (builds cmd/tiserved itself; pass -daemon to reuse a prebuilt binary)
//
// The same conversation by hand:
//
//	tiserved -addr 127.0.0.1:8347 &
//	curl -s localhost:8347/traces -d '{"traces":["p0 compute 1e9", ...]}'
//	curl -s localhost:8347/sweeps -d '{"trace":"sha256:...","grid":{"lat":"1,2"}}'
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tireplay/internal/npb"
	"tireplay/internal/serve"
)

const (
	procs     = 4
	collSweep = `{"trace":%q,"grid":{"coll":"default;binomial;bcast=binomial;allReduce=ring","lat":"1,2"}}`
)

func main() {
	daemon := flag.String("daemon", "", "path to a prebuilt tiserved binary (default: build cmd/tiserved)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("serve-smoke: ")

	tmp, err := os.MkdirTemp("", "tiserved-smoke-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	bin := *daemon
	if bin == "" {
		bin = filepath.Join(tmp, "tiserved")
		log.Printf("building %s", bin)
		build := exec.Command("go", "build", "-o", bin, "./cmd/tiserved")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("building tiserved: %v", err)
		}
	}

	// 1. Boot the daemon: ephemeral port, tiny admission queue (so the
	// flood check below is deterministic), leak check armed.
	addrFile := filepath.Join(tmp, "tiserved.addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-max-concurrent", "1", "-queue", "1", "-workers", "2",
		"-grace", "60s", "-leakcheck")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("starting tiserved: %v", err)
	}
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- cmd.Wait() }()
	defer cmd.Process.Kill()

	base := "http://" + waitForAddr(addrFile, daemonDone)
	waitForHealth(base)
	log.Printf("daemon up at %s", base)

	// 2. Upload the NPB LU fixture; verify content addressing dedups.
	digest := uploadFixture(base)
	if again := uploadFixture(base); again != digest {
		log.Fatalf("re-upload changed the digest: %s then %s", digest, again)
	}
	log.Printf("fixture stored as %s", digest)

	// 3. The 8-cell collective sweep, twice.
	body := fmt.Sprintf(collSweep, digest)
	st, cache1, first := post(base+"/sweeps", body)
	if st != http.StatusOK || cache1 != "miss" {
		log.Fatalf("first sweep: status %d cache %q: %s", st, cache1, first)
	}
	assertScenarios(first, 8)
	runsAfterFirst := stats(base).SweepsRun

	st, cache2, second := post(base+"/sweeps", body)
	if st != http.StatusOK || cache2 != "hit" {
		log.Fatalf("second sweep: status %d cache %q, want a 100%% cache hit", st, cache2)
	}
	if !bytes.Equal(first, second) {
		log.Fatalf("cached response is not byte-identical (%d vs %d bytes)", len(first), len(second))
	}
	if got := stats(base).SweepsRun; got != runsAfterFirst {
		log.Fatalf("cache hit replayed: sweeps_run %d -> %d", runsAfterFirst, got)
	}
	log.Printf("repeat served from cache, byte-identical (%d bytes, zero replay)", len(second))

	// 4. Identical concurrent fresh requests coalesce onto one run.
	fresh := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1,2,3,4","bw":"1,2"}}`, digest)
	before := stats(base).SweepsRun
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, _, resp := post(base+"/sweeps", fresh); st != http.StatusOK {
				log.Fatalf("coalesced client: status %d: %s", st, resp)
			}
		}()
	}
	wg.Wait()
	if delta := stats(base).SweepsRun - before; delta != 1 {
		log.Fatalf("4 identical concurrent requests ran %d sweeps, want 1", delta)
	}
	log.Printf("4 concurrent identical requests coalesced onto 1 run")

	// 5. Flood the 1-slot/1-queue daemon: occupy the slot with a long
	// sweep, then fire distinct requests; overflow must shed with 429.
	slow := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"%s","bw":"1,2,3,4"}}`, digest, floatList(32))
	slowDone := make(chan int, 1)
	go func() {
		st, _, _ := post(base+"/sweeps", slow)
		slowDone <- st
	}()
	waitFor("admitted sweep running", func() bool { return stats(base).Queue.Running == 1 })

	var shed atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"trace":%q,"grid":{"lat":"%d.25"}}`, digest, i+100)
			resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				log.Fatalf("flood client %d: %v", i, err)
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					log.Fatalf("shed response missing Retry-After")
				}
				shed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() < 1 {
		log.Fatalf("flooded a full queue with 4 distinct requests, none were shed")
	}
	if st := <-slowDone; st != http.StatusOK {
		log.Fatalf("admitted sweep was disturbed by the flood: status %d", st)
	}
	log.Printf("flood: %d/4 shed with 429+Retry-After, admitted sweep unharmed", shed.Load())

	// 6. An abort-policy fault sweep: host 1 fail-stops at t=0, so its rank
	// dies and the survivors block on it until the kernel gives up. The
	// answer is a row carrying the diagnosis; the -leakcheck below proves
	// the blocked ranks were released.
	st, _, aborted := post(base+"/sweeps", fmt.Sprintf(`{"trace":%q,"grid":{"fault":"host:1@0"}}`, digest))
	if st != http.StatusOK {
		log.Fatalf("fault sweep: status %d: %s", st, aborted)
	}
	assertAborted(aborted)
	final := stats(base)
	log.Printf("fault sweep: 200 with the lost-rank diagnosis in its row")

	// 7. Graceful shutdown: drain, exit 0, no goroutines left behind.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Fatalf("signalling daemon: %v", err)
	}
	select {
	case err := <-daemonDone:
		if err != nil {
			log.Fatalf("daemon exit: %v (leak check or shutdown failure)", err)
		}
	case <-time.After(90 * time.Second):
		log.Fatalf("daemon did not exit within 90s of SIGTERM")
	}

	log.Printf("PASS: %d sweeps run, %d scenarios served, cache %d+%d hits / %d misses, %d coalesced, %d shed, clean exit",
		final.SweepsRun, final.ScenariosServed,
		final.Cache.BodyHits, final.Cache.Hits, final.Cache.Misses,
		final.Coalesced, final.Queue.Shed)
}

// uploadFixture records the NPB LU pseudo-application and uploads its
// per-rank time-independent traces inline.
func uploadFixture(base string) string {
	perRank, err := npb.RecordAll("lu", npb.ClassS.Name, procs)
	if err != nil {
		log.Fatal(err)
	}
	texts := make([]string, procs)
	for r, acts := range perRank {
		var b strings.Builder
		for _, a := range acts {
			b.WriteString(a.Format())
			b.WriteByte('\n')
		}
		texts[r] = b.String()
	}
	payload, err := json.Marshal(map[string]any{"traces": texts})
	if err != nil {
		log.Fatal(err)
	}
	st, _, resp := post(base+"/traces", string(payload))
	if st != http.StatusOK {
		log.Fatalf("upload: status %d: %s", st, resp)
	}
	var up struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(resp, &up); err != nil {
		log.Fatal(err)
	}
	return up.Digest
}

func post(url, body string) (status int, xcache string, respBody []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("POST %s: reading response: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

func stats(base string) serve.Stats {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatalf("decoding /stats: %v", err)
	}
	return st
}

func assertScenarios(body []byte, want int) {
	var resp struct {
		Scenarios []struct {
			SimulatedTime float64 `json:"simulated_time"`
			Err           string  `json:"err"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		log.Fatalf("decoding sweep response: %v", err)
	}
	if len(resp.Scenarios) != want {
		log.Fatalf("got %d scenarios, want %d", len(resp.Scenarios), want)
	}
	for i, sc := range resp.Scenarios {
		if sc.Err != "" || sc.SimulatedTime <= 0 {
			log.Fatalf("scenario %d: err=%q t=%g", i, sc.Err, sc.SimulatedTime)
		}
	}
}

// assertAborted checks that a one-cell fault sweep came back as a single row
// diagnosing the ranks the fail-stop killed.
func assertAborted(body []byte) {
	var resp struct {
		Scenarios []struct {
			Err string `json:"err"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		log.Fatalf("decoding fault sweep response: %v", err)
	}
	if len(resp.Scenarios) != 1 || !strings.Contains(resp.Scenarios[0].Err, "lost to fail-stop faults") {
		log.Fatalf("fault sweep: want one row diagnosing lost ranks, got %s", body)
	}
}

// waitForAddr polls for the daemon's addr file, bailing early if the daemon
// already died.
func waitForAddr(path string, daemonDone <-chan error) string {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-daemonDone:
			log.Fatalf("daemon exited before binding: %v", err)
		default:
		}
		if b, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(b)) > 0 {
			return string(bytes.TrimSpace(b))
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatalf("daemon never wrote %s", path)
	return ""
}

func waitForHealth(base string) {
	waitFor("daemon healthy", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// floatList renders "1,2,...,n" for grid padding.
func floatList(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	return b.String()
}
