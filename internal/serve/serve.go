// Package serve turns the replay stack into a long-running service: a
// resident daemon holding a content-addressed store of loaded traces and a
// single-flight cache of sweep results, executing sweep requests on one
// shared worker pool.
//
// This is the paper's economics taken to its conclusion. Acquiring a
// time-independent trace is expensive and done once; every what-if question
// against it is deterministic, so the unit of work worth optimizing is the
// scenario-hour served, not the process launched. The daemon loads a trace
// once (mmapped binary traces are shared straight out of the page cache),
// answers repeated questions from cache byte-identically with zero replay,
// coalesces identical concurrent questions onto one kernel run, and sheds
// load crisply (429 + Retry-After) when the admission queue is full.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tireplay/internal/metrics"
	"tireplay/internal/replay"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
)

// StatusClientClosedRequest reports a request whose client disconnected
// before the outcome was ready (nginx's conventional 499).
const StatusClientClosedRequest = 499

// maxBodyBytes bounds a request body.
const maxBodyBytes = 64 << 20

// Config parameterises the daemon.
type Config struct {
	// TraceBudget bounds the trace store in bytes (<= 0: 1 GiB).
	TraceBudget int64
	// ResultBudget bounds the result cache in bytes (<= 0: 256 MiB).
	ResultBudget int64
	// MaxConcurrent bounds sweeps executing at once (<= 0: 2).
	MaxConcurrent int
	// MaxQueue bounds sweeps waiting for a slot; beyond it requests are
	// shed with 429 (< 0: 0).
	MaxQueue int
	// Workers is the shared engine pool width (<= 0: GOMAXPROCS).
	Workers int
	// MaxScenarios bounds one request's grid size (<= 0: 4096).
	MaxScenarios int
	// AllowPaths permits registering traces from daemon-local directories
	// via POST /traces {"path": ...}. Leave off when untrusted clients can
	// reach the daemon.
	AllowPaths bool
	// RetryAfter is the Retry-After hint in seconds on shed requests
	// (<= 0: 1).
	RetryAfter int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxScenarios <= 0 {
		c.MaxScenarios = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	return c
}

// Server is the daemon state behind the HTTP surface.
type Server struct {
	cfg      Config
	engine   *sweep.Engine
	traces   *TraceStore
	results  *resultCache
	flights  *flightGroup
	admitted *admission

	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time

	requests        atomic.Int64
	sweepsRun       atomic.Int64
	scenariosServed atomic.Int64

	bodies sync.Pool // *bytes.Buffer
}

// New builds a Server; Close it when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		engine:   sweep.NewEngine(cfg.Workers),
		traces:   NewTraceStore(cfg.TraceBudget),
		results:  newResultCache(cfg.ResultBudget),
		flights:  newFlightGroup(),
		admitted: newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		baseCtx:  ctx,
		cancel:   cancel,
		start:    time.Now(),
		bodies:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

// Close aborts in-flight sweeps, stops the engine pool and releases the
// trace store. In-flight requests return errors; call after (or while)
// draining the HTTP listener.
func (s *Server) Close() {
	s.cancel()
	s.engine.Close()
	s.traces.Close()
}

// Abort cancels in-flight sweeps without stopping the engine — the
// shutdown grace hammer: handlers return promptly, then Close finishes.
func (s *Server) Abort() { s.cancel() }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /traces", s.handleTraceUpload)
	mux.HandleFunc("GET /traces", s.handleTraceList)
	mux.HandleFunc("POST /sweeps", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// httpError is an outcome with a status; its message lands in the JSON
// error body.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// readBody drains the request body into a pooled buffer. The returned bytes
// are valid until release is called.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), err error) {
	buf := s.bodies.Get().(*bytes.Buffer)
	buf.Reset()
	lr := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if _, err := buf.ReadFrom(lr); err != nil {
		s.bodies.Put(buf)
		return nil, nil, err
	}
	return buf.Bytes(), func() { s.bodies.Put(buf) }, nil
}

// ---- POST /traces -------------------------------------------------------

// uploadRequest registers a trace set: either the per-rank trace texts
// inline, or (when the daemon allows it) a daemon-local directory in the
// layout tau2ti emits.
type uploadRequest struct {
	// Traces holds the per-rank time-independent traces, text encoding,
	// rank order.
	Traces []string `json:"traces,omitempty"`
	// Path and Ranks register SG_process<r>.trace(.gz)/.tib files from a
	// daemon-local directory; binary traces stay memory-mapped.
	Path  string `json:"path,omitempty"`
	Ranks int    `json:"ranks,omitempty"`
}

// uploadResponse names the registered set.
type uploadResponse struct {
	Digest  string `json:"digest"`
	Ranks   int    `json:"ranks"`
	Bytes   int64  `json:"bytes"`
	Existed bool   `json:"existed"`
}

func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	body, release, err := s.readBody(w, r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer release()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req uploadRequest
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad upload request: "+err.Error())
		return
	}
	var resp *uploadResponse
	var herr *httpError
	switch {
	case len(req.Traces) > 0 && req.Path != "":
		herr = httpErrorf(http.StatusBadRequest, "give traces or path, not both")
	case len(req.Traces) > 0:
		resp, herr = s.registerInline(req.Traces)
	case req.Path != "":
		resp, herr = s.registerPath(req.Path, req.Ranks)
	default:
		herr = httpErrorf(http.StatusBadRequest, "empty upload: need traces or path")
	}
	if herr != nil {
		writeJSONError(w, herr.status, herr.msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// registerInline stores per-rank trace texts uploaded in the request body.
func (s *Server) registerInline(texts []string) (*uploadResponse, *httpError) {
	d := trace.NewDigester()
	var bytes int64
	for _, t := range texts {
		d.Rank([]byte(t))
		bytes += int64(len(t))
	}
	digest := d.Sum()
	resp := &uploadResponse{Digest: digest, Ranks: len(texts), Bytes: bytes}
	if s.traces.Touch(digest) {
		resp.Existed = true
		return resp, nil
	}
	ts, err := sweep.TracesFromTexts(texts)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	resp.Existed = s.traces.Add(digest, ts, bytes)
	return resp, nil
}

// registerPath stores a trace set resolved from a daemon-local directory.
func (s *Server) registerPath(dir string, ranks int) (*uploadResponse, *httpError) {
	if !s.cfg.AllowPaths {
		return nil, httpErrorf(http.StatusForbidden, "path registration is disabled")
	}
	if ranks <= 0 {
		return nil, httpErrorf(http.StatusBadRequest, "path registration needs a positive ranks count")
	}
	paths, err := trace.RankFiles(dir, ranks)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	digest, bytes, err := trace.DigestFiles(paths)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	resp := &uploadResponse{Digest: digest, Ranks: ranks, Bytes: bytes}
	if s.traces.Touch(digest) {
		resp.Existed = true
		return resp, nil
	}
	ts, err := sweep.LoadDir(dir, ranks)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	if s.traces.Add(digest, ts, bytes) {
		// A racing registration beat us; ours was not adopted.
		ts.Close()
		resp.Existed = true
	}
	return resp, nil
}

func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.traces.List())
}

// ---- POST /sweeps -------------------------------------------------------

// GridSpec is the scenario grid of a sweep request, every axis in the
// corresponding tisweep flag syntax.
type GridSpec = sweep.GridSpec

// SynthSpec carries the fitted model of a request's synthetic worlds.
type SynthSpec = sweep.SynthSpec

// SweepRequest asks the daemon to replay a stored trace over a scenario
// grid; sweep.Request documents its fields and Plan its rules.
type SweepRequest = sweep.Request

// ScenarioRow is one scenario's deterministic outcome.
type ScenarioRow struct {
	sweep.Scenario
	Name          string                `json:"name"`
	SimulatedTime float64               `json:"simulated_time"`
	Actions       int64                 `json:"actions"`
	Components    int                   `json:"components"`
	Resilience    *replay.Resilience    `json:"resilience,omitempty"`
	Profile       []*replay.ProcProfile `json:"profile,omitempty"`
	Metrics       *metrics.Report       `json:"metrics,omitempty"`
	Timed         []byte                `json:"timed,omitempty"`
	Err           string                `json:"err,omitempty"`
}

// SweepResponse is the deterministic response body of POST /sweeps.
// Execution facts that vary run to run — wall time, worker count, replay
// sharing — are deliberately absent (headers and /stats carry them), so the
// body is a pure function of (trace digest, canonical request) and stays
// byte-identical between a replayed and a cached answer.
type SweepResponse struct {
	Trace     string        `json:"trace,omitempty"`
	Platform  string        `json:"platform,omitempty"`
	Scenarios []ScenarioRow `json:"scenarios"`
}

// sweepPlan is a checked sweep request with its cache identity.
type sweepPlan struct {
	*sweep.Plan
	key      string // canonical cache key
	digest   string // empty: all-synthetic, no stored trace
	platKey  string // empty: every cell sets a topology
	synthKey string // canonical model+knobs identity
}

// parseSweep decodes, validates and canonicalizes a request body.
func (s *Server) parseSweep(body []byte) (*sweepPlan, *httpError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "bad sweep request: %v", err)
	}
	ranks := 0
	if req.Trace != "" {
		var ok bool
		if ranks, ok = s.traces.Ranks(req.Trace); !ok {
			return nil, httpErrorf(http.StatusNotFound, "unknown trace %s", req.Trace)
		}
	}
	plan, err := req.Plan(ranks)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	if n := plan.Grid.Size(); n > s.cfg.MaxScenarios {
		return nil, httpErrorf(http.StatusBadRequest,
			"grid expands to %d scenarios, limit %d", n, s.cfg.MaxScenarios)
	}
	p := &sweepPlan{Plan: plan, digest: req.Trace}
	if plan.Base != nil {
		p.platKey = plan.Base.String()
	}
	// The synthetic model's identity is the sha256 of its canonical
	// re-encoding plus the knobs in canonical spelling, so equivalent
	// spellings of one model share a cache entry and one in-flight
	// execution.
	if plan.Synth != nil {
		var canon bytes.Buffer
		if err := plan.Synth.WriteJSON(&canon); err != nil {
			return nil, httpErrorf(http.StatusInternalServerError, "synth model: %v", err)
		}
		spec := plan.SynthSpec
		p.synthKey = fmt.Sprintf("%x scale=%s seed=%d jitter=%s", sha256.Sum256(canon.Bytes()),
			spec.Law.String(), spec.Seed, strconv.FormatFloat(spec.Jitter, 'g', -1, 64))
	}
	p.key = canonicalSweepKey(p)
	return p, nil
}

// canonicalSweepKey renders the request's canonical identity: the trace
// digest, the canonical platform key, the model and output options, the
// synthetic model's identity, and a SHA-256 over the names of the scenarios
// the grid expands to, in expansion order. The response rows are exactly
// that expansion, and Scenario.Name renders every field of a cell but the
// index its position carries, so two requests share one cache entry and one
// in-flight execution exactly when they expand to the same scenarios,
// however they were spelled. Each name is length-prefixed because a fault
// host name may hold a newline.
func canonicalSweepKey(p *sweepPlan) string {
	h := sha256.New()
	var line []byte
	for _, sc := range p.Grid.Expand() {
		name := sc.Name()
		line = strconv.AppendInt(line[:0], int64(len(name)), 10)
		line = append(line, ' ')
		line = append(line, name...)
		line = append(line, '\n')
		h.Write(line)
	}
	synthKey := p.synthKey
	if synthKey == "" {
		synthKey = "none"
	}
	// Plan sets a Model only for no_mpi_model.
	return fmt.Sprintf("%s\n%s\nmodel=%t timed=%t prof=%t metrics=%t win=%d\nsynth=%s\ncells=%x",
		p.digest, p.platKey, p.Model != nil, p.Timed, p.Profile, p.Metrics, p.MetricsWindows,
		synthKey, h.Sum(nil))
}

// sweepOutcome is the computed reply of one sweep request.
type sweepOutcome struct {
	status     int
	cache      string // "hit", "coalesced", "miss" or "" (not cacheable)
	body       []byte
	retryAfter bool
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, release, err := s.readBody(w, r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer release()
	out := s.sweepFromBody(r.Context(), body)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if out.cache != "" {
		h.Set("X-Cache", out.cache)
	}
	if out.retryAfter {
		h.Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// errorBody renders the JSON error payload of a non-200 outcome.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

// sweepFromBody is the request path under the HTTP envelope: raw body in,
// status/body out. The first layer — hash the body, look it up, serve the
// stored bytes — is allocation-free, so a repeated byte-identical request
// costs no replay, no JSON decode and no garbage.
func (s *Server) sweepFromBody(ctx context.Context, body []byte) sweepOutcome {
	bodyHash := sha256.Sum256(body)
	if b := s.results.lookupBody(bodyHash); b != nil {
		return sweepOutcome{status: http.StatusOK, cache: "hit", body: b}
	}

	plan, herr := s.parseSweep(body)
	if herr != nil {
		return sweepOutcome{status: herr.status, body: errorBody(herr.msg)}
	}
	if b := s.results.lookup(plan.key, bodyHash); b != nil {
		return sweepOutcome{status: http.StatusOK, cache: "hit", body: b}
	}

	f, fctx, runner := s.flights.enter(s.baseCtx, plan.key)
	// Wire this participant's disconnect into the flight: the sweep is
	// cancelled only when the last interested client is gone.
	stop := context.AfterFunc(ctx, f.leave)
	defer stop()
	if !runner {
		select {
		case <-f.done:
			return sweepOutcome{status: f.status, cache: "coalesced", body: f.body,
				retryAfter: f.status == http.StatusTooManyRequests}
		case <-ctx.Done():
			return sweepOutcome{status: StatusClientClosedRequest,
				body: errorBody("client disconnected")}
		}
	}
	defer s.flights.exit(plan.key, f)
	out := s.runSweep(fctx, plan, bodyHash)
	f.settle(out.status, out.body)
	out.cache = "miss"
	return out
}

// runSweep executes one admitted sweep and caches a fully successful
// response.
func (s *Server) runSweep(ctx context.Context, plan *sweepPlan, bodyHash [32]byte) sweepOutcome {
	// Re-check the cache now that this flight owns the key: a previous
	// flight may have stored the result between our miss and our enter,
	// and a cached answer must never burn an admission slot.
	if b := s.results.recheck(plan.key, bodyHash); b != nil {
		return sweepOutcome{status: http.StatusOK, body: b}
	}
	ok, shed := s.admitted.enter(ctx)
	if shed {
		return sweepOutcome{status: http.StatusTooManyRequests,
			body: errorBody("admission queue full; retry later"), retryAfter: true}
	}
	if !ok {
		return sweepOutcome{status: StatusClientClosedRequest,
			body: errorBody("canceled while queued")}
	}
	defer s.admitted.leave()

	cfg := plan.Config
	if plan.digest != "" {
		th, ok := s.traces.Acquire(plan.digest)
		if !ok {
			// Evicted between parse and admission; the client re-uploads.
			return sweepOutcome{status: http.StatusNotFound,
				body: errorBody("trace " + plan.digest + " no longer stored")}
		}
		defer th.Release()
		cfg.Traces = th.Set()
	}
	if plan.Base != nil {
		var err error
		if cfg.Platform, err = plan.Base.Build(); err != nil {
			return sweepOutcome{status: http.StatusInternalServerError, body: errorBody(err.Error())}
		}
	}
	res, err := s.engine.Run(ctx, &cfg)
	s.sweepsRun.Add(1)
	if err != nil {
		return sweepOutcome{status: http.StatusServiceUnavailable,
			body: errorBody("sweep canceled: " + err.Error())}
	}
	s.scenariosServed.Add(int64(len(res.Scenarios)))

	resp := SweepResponse{Trace: plan.digest, Platform: plan.platKey,
		Scenarios: make([]ScenarioRow, len(res.Scenarios))}
	clean := true
	for i := range res.Scenarios {
		sc := &res.Scenarios[i]
		resp.Scenarios[i] = ScenarioRow{
			Scenario: sc.Scenario, Name: sc.Name,
			SimulatedTime: sc.SimulatedTime, Actions: sc.Actions,
			Components: sc.Components, Resilience: sc.Resilience,
			Profile: sc.Profile, Metrics: sc.Metrics, Timed: sc.TimedTrace, Err: sc.Err,
		}
		if sc.Err != "" {
			clean = false
		}
	}
	b, merr := json.Marshal(&resp)
	if merr != nil {
		return sweepOutcome{status: http.StatusInternalServerError, body: errorBody(merr.Error())}
	}
	b = append(b, '\n')
	// Only fully successful sweeps are cached: per-scenario errors are
	// legitimate results (a faulted cell aborting is the answer), but a
	// panic message may embed nondeterministic detail, so err rows make
	// the whole response uncacheable rather than risk pinning one.
	if clean {
		s.results.store(plan.key, bodyHash, b)
	}
	return sweepOutcome{status: http.StatusOK, body: b}
}

// ---- GET /healthz, GET /stats ------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Stats is the /stats snapshot.
type Stats struct {
	UptimeSeconds   float64          `json:"uptime_seconds"`
	Requests        int64            `json:"requests"`
	SweepsRun       int64            `json:"sweeps_run"`
	ScenariosServed int64            `json:"scenarios_served"`
	Inflight        int              `json:"inflight"`
	Coalesced       int64            `json:"coalesced"`
	EngineWorkers   int              `json:"engine_workers"`
	Cache           resultCacheStats `json:"cache"`
	Queue           admissionStats   `json:"queue"`
	Traces          TraceStoreStats  `json:"traces"`
}

// Snapshot collects the daemon counters.
func (s *Server) Snapshot() Stats {
	inflight, coalesced := s.flights.stats()
	return Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		SweepsRun:       s.sweepsRun.Load(),
		ScenariosServed: s.scenariosServed.Load(),
		Inflight:        inflight,
		Coalesced:       coalesced,
		EngineWorkers:   s.engine.Workers(),
		Cache:           s.results.stats(),
		Queue:           s.admitted.stats(),
		Traces:          s.traces.Stats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
