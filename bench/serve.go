package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tireplay/internal/serve"
	"tireplay/internal/trace"
)

// clients is the number of closed-loop clients of serve-mixed, each with one
// keep-alive connection.
const clients = 2

// serveRunner measures tiserved under serve-mixed's closed-loop traffic.
type serveRunner struct {
	e      *env
	ranks  int
	upload []byte // POST /traces body: LU class S inline
	digest string // the upload's content digest
	grids  []string
	// seqs[c] is client c's request sequence. Each grid belongs to one
	// client, so its first request completes before any repeat is sent:
	// the first is always the miss, and nothing coalesces.
	seqs [clients][]request
	// bodies[g][v] is grid g's request body in spelling v; spelling 0 is
	// the original, the others are respellings with the same canonical
	// key.
	bodies [][][]byte
	// perGrid runs each grid through tisweep: the traced run decomposes
	// the same scenarios the daemon replays on its misses.
	perGrid []*sweepRunner
}

type request struct {
	grid, spelling int
}

// spellings is how many ways a grid's request is written.
const spellings = 4

func prepareServe(e *env) (runner, error) {
	n := e.size.ranks
	dir, err := e.input(inputSpec{"lu", "S", n, "upload"})
	if err != nil {
		return nil, err
	}
	upload, err := os.ReadFile(filepath.Join(dir, "upload.json"))
	if err != nil {
		return nil, err
	}
	var up struct {
		Traces []string `json:"traces"`
	}
	if err := json.Unmarshal(upload, &up); err != nil {
		return nil, err
	}
	d := trace.NewDigester()
	for _, t := range up.Traces {
		d.Rank([]byte(t))
	}
	s := &serveRunner{e: e, ranks: n, upload: upload, digest: d.Sum()}

	// Grid g's first bandwidth factor comes from the g-th log-stratum of
	// [0.5, 4], so every seed spans the same range and replays about the
	// same amount of work; the strata also keep the grids distinct.
	r := newRNG(e.seed, "serve-mixed")
	grids := e.size.serveGrids
	lo, hi := 0.5, 4.0
	for g := 0; g < grids; g++ {
		a := lo * math.Pow(hi/lo, float64(g)/float64(grids))
		b := lo * math.Pow(hi/lo, float64(g+1)/float64(grids))
		x := r.logUniform(a, b)
		y := r.logUniform(1.5*x, 2.5*x)
		s.grids = append(s.grids, floats(x, y))
	}
	for g := range s.grids {
		s.bodies = append(s.bodies, s.spell(s.grids[g]))
		sr, err := newSweepRunner(e, "serve-mixed-grid", sweepFlags{dir: dir, ranks: n, bw: s.grids[g]})
		if err != nil {
			return nil, err
		}
		s.perGrid = append(s.perGrid, sr)
	}
	for c := 0; c < clients; c++ {
		var seq []request
		for g := c; g < grids; g += clients {
			for i := 0; i <= e.size.serveHits; i++ {
				seq = append(seq, request{grid: g})
			}
		}
		for i := len(seq) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			seq[i], seq[j] = seq[j], seq[i]
		}
		// The first request of each grid is sent as written; about four in
		// ten repeats are respelled and hit the canonical-key layer.
		seen := map[int]bool{}
		for i := range seq {
			if seen[seq[i].grid] && r.float() < 0.4 {
				seq[i].spelling = 1 + r.intn(spellings-1)
			}
			seen[seq[i].grid] = true
		}
		s.seqs[c] = seq
	}
	return s, nil
}

// spell writes grid bw's request in every spelling: the original, then
// reordered keys, "1.0"-style numbers with explicit default axes, and an
// explicit default platform with the execution-only fork knob.
func (s *serveRunner) spell(bw string) [][]byte {
	padded := make([]string, 0, 2)
	for _, f := range strings.Split(bw, ",") {
		if !strings.Contains(f, ".") {
			f += ".0"
		}
		padded = append(padded, f+"0")
	}
	return [][]byte{
		[]byte(fmt.Sprintf(`{"trace":%q,"grid":{"bw":%q}}`, s.digest, bw)),
		[]byte(fmt.Sprintf(`{"grid":{"bw":%q},"trace":%q}`, bw, s.digest)),
		[]byte(fmt.Sprintf(`{"trace":%q,"grid":{"lat":"1.0","bw":%q,"power":"1","fold":"1"}}`,
			s.digest, strings.Join(padded, ","))),
		[]byte(fmt.Sprintf(`{"platform":"bordereau:%d","fork":false,"grid":{"bw":%q},"trace":%q}`,
			s.ranks, bw, s.digest)),
	}
}

// daemonArgs is the measured tiserved command line.
func (s *serveRunner) daemonArgs(addrFile string) []string {
	return []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(workers), "-max-concurrent", "2", "-queue", "8", "-leakcheck"}
}

// boot starts the daemon and uploads the trace; it returns the daemon, its
// base URL, the set-up time (start to listening, plus the upload round
// trip) and the upload round trip alone.
func (s *serveRunner) boot(ctx context.Context, name string) (c *child, base string, setup, upload time.Duration, err error) {
	out, err := s.e.outDir(name)
	if err != nil {
		return nil, "", 0, 0, err
	}
	addrFile := filepath.Join(out, "addr")
	if c, err = startChild(ctx, s.e.tiserved, s.daemonArgs(addrFile), "tiserved: listening on "); err != nil {
		return nil, "", 0, 0, err
	}
	if _, err := c.waitReady(); err != nil {
		c.kill()
		return nil, "", 0, 0, err
	}
	addr, err := os.ReadFile(addrFile)
	if err != nil {
		c.kill()
		return nil, "", 0, 0, err
	}
	base = "http://" + strings.TrimSpace(string(addr))
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	sent := time.Now()
	status, _, body, err := post(ctx, hc, base+"/traces", s.upload)
	setup, upload = time.Since(c.start), time.Since(sent)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("upload: status %d: %s", status, body)
	}
	if err == nil {
		var up struct {
			Digest string `json:"digest"`
		}
		if err = json.Unmarshal(body, &up); err == nil && up.Digest != s.digest {
			err = fmt.Errorf("upload digest %s, want %s", up.Digest, s.digest)
		}
	}
	if err != nil {
		c.kill()
		return nil, "", 0, 0, err
	}
	return c, base, setup, upload, nil
}

func (s *serveRunner) probe(ctx context.Context) (time.Duration, error) {
	c, _, setup, _, err := s.boot(ctx, "serve-mixed-probe")
	if err != nil {
		return 0, err
	}
	c.kill()
	return setup, nil
}

// outcome is one answered request.
type outcome struct {
	req     request
	status  int
	cache   string
	latency time.Duration
	body    []byte
	err     error
}

func (s *serveRunner) rep(ctx context.Context) rep {
	total := 0
	for _, seq := range s.seqs {
		total += len(seq)
	}
	r := rep{attempted: total}
	c, base, setup, upload, err := s.boot(ctx, "serve-mixed")
	if err != nil {
		r.err, r.failed = err, total
		return r
	}
	r.setup = setup

	// The closed loop: each client sends its next request only after the
	// previous answer is read.
	results := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for _, q := range s.seqs[ci] {
				t := time.Now()
				st, cache, body, err := post(ctx, hc, base+"/sweeps", s.bodies[q.grid][q.spelling])
				results[ci] = append(results[ci], outcome{req: q, status: st, cache: cache,
					latency: time.Since(t), body: body, err: err})
			}
		}(ci)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.replayWall = r.wall

	stats, serr := getStats(ctx, base)
	c.signal(syscall.SIGTERM)
	x := c.wait()
	r.cpu, r.maxRSS = x.cpu, x.maxRSS

	var problems []string
	miss := make([][]byte, len(s.grids))
	for _, res := range results {
		for _, o := range res {
			switch {
			case o.err != nil:
				problems = append(problems, o.err.Error())
			case o.status != http.StatusOK:
				problems = append(problems, fmt.Sprintf("grid %d: status %d", o.req.grid, o.status))
			case o.cache == "miss":
				miss[o.req.grid] = o.body
				r.missMS = append(r.missMS, float64(o.latency)/float64(time.Millisecond))
				actions, err := responseActions(o.body)
				if err != nil {
					problems = append(problems, err.Error())
				}
				r.actions += actions
				continue
			case o.cache == "hit":
				r.hitUS = append(r.hitUS, float64(o.latency)/float64(time.Microsecond))
				continue
			default:
				problems = append(problems, fmt.Sprintf("grid %d: X-Cache %q", o.req.grid, o.cache))
			}
			r.failed++
		}
	}
	// Every hit must return its grid's miss body byte for byte.
	for _, res := range results {
		for _, o := range res {
			if o.status == http.StatusOK && miss[o.req.grid] != nil && !bytes.Equal(o.body, miss[o.req.grid]) {
				problems = append(problems, fmt.Sprintf("grid %d: cached body differs from its miss", o.req.grid))
				r.failed++
			}
		}
	}
	for g := range miss {
		if miss[g] == nil {
			problems = append(problems, fmt.Sprintf("grid %d: no miss", g))
		}
	}
	if serr != nil {
		problems = append(problems, serr.Error())
	} else {
		r.notes = map[string]float64{"upload_s": upload.Seconds(),
			"body_hits": float64(stats.Cache.BodyHits), "canonical_hits": float64(stats.Cache.Hits),
			"misses": float64(stats.Cache.Misses), "coalesced": float64(stats.Coalesced),
			"shed": float64(stats.Queue.Shed)}
	}
	if x.err != nil {
		problems = append(problems, "daemon exit: "+x.err.Error())
		r.failed++
	}
	if len(problems) > 0 {
		r.err = fmt.Errorf("serve-mixed: %s", strings.Join(problems, "; "))
		r.failed = min(max(r.failed, 1), total)
		return r
	}
	r.digests = map[string]string{"bodies": trace.DigestRanks(miss)}
	return r
}

// post sends body and reads the whole answer.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

func getStats(ctx context.Context, base string) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return st, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// responseActions sums the actions of a sweep response's rows and fails on
// a row that reports an error.
func responseActions(body []byte) (int64, error) {
	var resp struct {
		Scenarios []struct {
			Actions int64  `json:"actions"`
			Err     string `json:"err"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("sweep response: %w", err)
	}
	var n int64
	for _, sc := range resp.Scenarios {
		if sc.Err != "" {
			return 0, fmt.Errorf("sweep response row: %s", sc.Err)
		}
		n += sc.Actions
	}
	return n, nil
}
