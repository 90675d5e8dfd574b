package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"tireplay/internal/npb"
	"tireplay/internal/synth"
	"tireplay/internal/trace"
)

// inputSpec names one generated input: an NPB skeleton recorded on some
// ranks, written in one format.
type inputSpec struct {
	app, class string
	ranks      int
	// format is "text" or "tib" (one trace file per rank), "model" (a
	// synthetic model fitted on the traces, in model.json) or "upload"
	// (text files plus the inline POST /traces body, in upload.json).
	format string
}

func (s inputSpec) name() string {
	return fmt.Sprintf("%s-%s-%d-%s", s.app, s.class, s.ranks, s.format)
}

func parseInputSpec(name string) (inputSpec, error) {
	f := strings.Split(name, "-")
	if len(f) != 4 {
		return inputSpec{}, fmt.Errorf("bad input name %q", name)
	}
	n, err := strconv.Atoi(f[2])
	if err != nil {
		return inputSpec{}, fmt.Errorf("bad input name %q: %w", name, err)
	}
	return inputSpec{app: f[0], class: f[1], ranks: n, format: f[3]}, nil
}

// write generates the input into dir.
func (s inputSpec) write(dir string) error {
	perRank, err := npb.RecordAll(s.app, s.class, s.ranks)
	if err != nil {
		return fmt.Errorf("recording %s class %s on %d ranks: %w", s.app, s.class, s.ranks, err)
	}
	switch s.format {
	case "text", "tib":
		return writeTraceDir(dir, perRank, s.format == "tib")
	case "upload":
		if err := writeTraceDir(dir, perRank, false); err != nil {
			return err
		}
		texts := make([]string, len(perRank))
		for r, acts := range perRank {
			var b bytes.Buffer
			if err := trace.WriteAll(&b, acts); err != nil {
				return err
			}
			texts[r] = b.String()
		}
		body, err := json.Marshal(map[string]any{"traces": texts})
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "upload.json"), body, 0o644)
	case "model":
		m, err := fitTruncated(perRank)
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if err := m.WriteJSON(&b); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "model.json"), b.Bytes(), 0o644)
	}
	return fmt.Errorf("unknown input format %q", s.format)
}

// input returns the directory of a generated input, generating it first if
// no earlier run left it under the work directory. Generation runs in a
// child process: the kernel charges a parent's peak resident set to the
// children it starts afterwards, so the parent must stay small for the
// children's peak RSS to be their own.
func (e *env) input(s inputSpec) (string, error) {
	dir := filepath.Join(e.work, "inputs", s.name())
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	if e.self == "" {
		if err := s.write(tmp); err != nil {
			return "", err
		}
	} else {
		cmd := exec.Command(e.self, "-generate", s.name(), "-generate-dir", tmp)
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("generating %s: %v\n%s", s.name(), err, out)
		}
	}
	// The rename publishes the input whole: an interrupted run never
	// leaves a partial one behind.
	return dir, os.Rename(tmp, dir)
}

// writeTraceDir writes one SG_process<r> file per rank under dir, in the
// text encoding or the binary .tib codec.
func writeTraceDir(dir string, perRank [][]trace.Action, binary bool) error {
	for r, acts := range perRank {
		name := trace.ProcessFileName(r)
		if binary {
			name = trace.BinaryFileName(r)
		}
		if err := writeRank(filepath.Join(dir, name), acts, binary); err != nil {
			return err
		}
	}
	return nil
}

func writeRank(path string, acts []trace.Action, binary bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	if binary {
		err = trace.EncodeBinary(bw, acts)
	} else {
		err = trace.WriteAll(bw, acts)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// fitTruncated fits a synthetic model from recorded traces and truncates
// every segment's repeat count to one, as BenchmarkLargeWorldReplay does, so
// a 16k-rank world replays one iteration sweep per rank.
func fitTruncated(perRank [][]trace.Action) (*synth.Model, error) {
	m, err := synth.Fit(perRank)
	if err != nil {
		return nil, fmt.Errorf("fitting synthetic model: %w", err)
	}
	for i := range m.Phases {
		if s := m.Phases[i].Seg; s != nil && s.Reps > 1 {
			s.Reps = 1
		}
	}
	return m, nil
}
