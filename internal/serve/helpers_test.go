package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
)

// luActions records an NPB LU pseudo-application into per-rank actions.
func luActions(tb testing.TB, class npb.Class, procs int) [][]trace.Action {
	tb.Helper()
	prog, err := npb.LU(npb.LUConfig{Class: class, Procs: procs})
	if err != nil {
		tb.Fatal(err)
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		tb.Fatal(err)
	}
	return perRank
}

// luTexts renders the recorded actions in the textual trace format, one
// string per rank — the inline upload payload.
func luTexts(tb testing.TB, class npb.Class, procs int) []string {
	tb.Helper()
	perRank := luActions(tb, class, procs)
	texts := make([]string, procs)
	for r, acts := range perRank {
		var b strings.Builder
		for _, a := range acts {
			b.WriteString(a.Format())
			b.WriteByte('\n')
		}
		texts[r] = b.String()
	}
	return texts
}

// luTraces builds a parsed trace set directly (store-level tests).
func luTraces(tb testing.TB, class npb.Class, procs int) *sweep.TraceSet {
	tb.Helper()
	return sweep.TracesFromActions(luActions(tb, class, procs))
}

// writeTraceDir materialises per-rank traces under dir in the mixed file
// layout the loader resolves: rank 0 plain text, rank 1 gzip (when present),
// the rest binary (memory-mapped on load).
func writeTraceDir(tb testing.TB, dir string, perRank [][]trace.Action) {
	tb.Helper()
	for r, acts := range perRank {
		var err error
		switch {
		case r == 0:
			var b strings.Builder
			for _, a := range acts {
				b.WriteString(a.Format())
				b.WriteByte('\n')
			}
			err = os.WriteFile(filepath.Join(dir, trace.ProcessFileName(r)), []byte(b.String()), 0o644)
		case r == 1:
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			for _, a := range acts {
				io.WriteString(zw, a.Format())
				io.WriteString(zw, "\n")
			}
			if err = zw.Close(); err == nil {
				err = os.WriteFile(filepath.Join(dir, trace.GzipFileName(r)), buf.Bytes(), 0o644)
			}
		default:
			var buf bytes.Buffer
			if err = trace.EncodeBinary(&buf, acts); err == nil {
				err = os.WriteFile(filepath.Join(dir, trace.BinaryFileName(r)), buf.Bytes(), 0o644)
			}
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// bytesReader wraps a request body literal.
func bytesReader(s string) io.Reader { return strings.NewReader(s) }

// testDaemon is a Server behind an httptest listener.
type testDaemon struct {
	srv  *Server
	http *httptest.Server
}

func newTestDaemon(tb testing.TB, cfg Config) *testDaemon {
	tb.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testDaemon{srv: s, http: ts}
}

// post sends body to path and returns status, X-Cache and the response body.
func (d *testDaemon) post(tb testing.TB, path, body string) (status int, xcache string, resp []byte) {
	tb.Helper()
	r, err := http.Post(d.http.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return r.StatusCode, r.Header.Get("X-Cache"), b
}

// get fetches path and returns status and body.
func (d *testDaemon) get(tb testing.TB, path string) (int, []byte) {
	tb.Helper()
	r, err := http.Get(d.http.URL + path)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return r.StatusCode, b
}

// uploadLU registers an LU trace set inline and returns its digest.
func (d *testDaemon) uploadLU(tb testing.TB, class npb.Class, procs int) string {
	tb.Helper()
	body, err := json.Marshal(uploadRequest{Traces: luTexts(tb, class, procs)})
	if err != nil {
		tb.Fatal(err)
	}
	status, _, resp := d.post(tb, "/traces", string(body))
	if status != http.StatusOK {
		tb.Fatalf("upload: status %d: %s", status, resp)
	}
	var up uploadResponse
	if err := json.Unmarshal(resp, &up); err != nil {
		tb.Fatal(err)
	}
	return up.Digest
}
