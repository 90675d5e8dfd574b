package sweep

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file streams timed traces to the destinations Config.OpenTimed
// opens, so that a sweep holds one writer buffer per running replay
// instead of every trace of the grid.

// TimedDest receives one scenario's timed trace (Config.OpenTimed). The
// engine writes the whole trace into it, reads it back through ReadAt to
// fill the destinations of the rows that share the replay, and then calls
// exactly one of Publish, once the row completed, and Discard. Both release
// the destination.
type TimedDest interface {
	io.Writer
	io.ReaderAt
	// Publish makes the complete trace visible. When it fails, nothing is
	// published.
	Publish() error
	// Discard drops what was written.
	Discard()
}

// TimedDir returns an OpenTimed hook that writes scenario i's timed trace
// to dir/scenario<i>.timed, creating dir first. A trace is written under
// the temporary name scenario<i>.timed.tmp and renamed into place when its
// row completes, so every scenario<i>.timed is the whole trace of a
// completed scenario.
func TimedDir(dir string) (func(*Scenario) (TimedDest, error), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(sc *Scenario) (TimedDest, error) {
		path := filepath.Join(dir, fmt.Sprintf("scenario%d.timed", sc.Index))
		f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		return &timedFile{f: f, path: path}, nil
	}, nil
}

// timedFile is a trace file being written under a temporary name; path is
// the name Publish gives it.
type timedFile struct {
	f    *os.File
	path string
}

func (f *timedFile) Write(p []byte) (int, error) { return f.f.Write(p) }

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

func (f *timedFile) Publish() error {
	err := f.f.Close()
	if err == nil {
		err = os.Rename(f.f.Name(), f.path)
	}
	if err != nil {
		_ = os.Remove(f.f.Name()) // best effort: the row fails with err
	}
	return err
}

// Discard closes and removes the temporary file. It runs only for a row
// that already failed, so its own errors have nowhere to go.
func (f *timedFile) Discard() {
	_ = f.f.Close()
	_ = os.Remove(f.f.Name())
}

// timedError is a failure of a timed-trace destination: to open, write,
// copy or publish it. The simulation is not at fault, so the engine fails
// the other rows of the group with it instead of replaying them.
type timedError struct{ err error }

func (e *timedError) Error() string { return "sweep: timed trace: " + e.err.Error() }

func (e *timedError) Unwrap() error { return e.err }

// timedStream is an open destination. It counts the bytes written so that
// the rows sharing the replay can copy them back out.
type timedStream struct {
	dest TimedDest
	n    int64
}

func (s *timedStream) Write(p []byte) (int, error) {
	n, err := s.dest.Write(p)
	s.n += int64(n)
	return n, err
}

// openTimed opens sc's destination when the sweep streams its timed
// traces; it returns nil when the sweep buffers them, or traces nothing.
func openTimed(cfg *Config, sc *Scenario) (*timedStream, error) {
	if !cfg.Timed || cfg.OpenTimed == nil {
		return nil, nil
	}
	d, err := cfg.OpenTimed(sc)
	if err != nil {
		return nil, &timedError{err}
	}
	return &timedStream{dest: d}, nil
}

// copyTo opens sc's own destination and copies the finished trace into it,
// for a row that reuses this stream's replay. On a copy error it returns
// the destination too, for settle to discard.
func (s *timedStream) copyTo(cfg *Config, sc *Scenario) (*timedStream, error) {
	c, err := openTimed(cfg, sc)
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(c, io.NewSectionReader(s.dest, 0, s.n)); err != nil {
		return c, &timedError{err}
	}
	return c, nil
}

// settle releases the outcome's destination, if it has one: it publishes
// the trace of a completed row and discards that of a failed one. A
// publish error fails the row.
func (o *outcome) settle() {
	s := o.stream
	if s == nil {
		return
	}
	o.stream = nil
	if o.err != nil {
		s.dest.Discard()
		return
	}
	if err := s.dest.Publish(); err != nil {
		o.err = &timedError{err}
	}
}
