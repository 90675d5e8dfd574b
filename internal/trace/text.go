package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Writer streams actions to an output in the textual format.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w in a buffered trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one action.
func (tw *Writer) Write(a Action) error {
	if _, err := tw.bw.WriteString(a.Format()); err != nil {
		return err
	}
	return tw.bw.WriteByte('\n')
}

// Flush drains the internal buffer.
func (tw *Writer) Flush() error { return tw.bw.Flush() }

// WriteAll renders a full action list to w.
func WriteAll(w io.Writer, actions []Action) error {
	tw := NewWriter(w)
	for _, a := range actions {
		if err := tw.Write(a); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// maxLineBytes caps how much the Scanner buffers for a single line, the
// same 1 MiB bound the previous bufio.Scanner-based implementation used.
const maxLineBytes = 1 << 20

// Scanner streams actions from a textual trace. It reads lines as views
// into the underlying buffered reader — no per-line copy or string — and
// parses them with the byte-level fast path, so scanning large traces is
// allocation-free after warm-up.
type Scanner struct {
	br   *bufio.Reader
	line int
	cur  Action
	err  error
	long []byte // spill buffer for lines longer than the read buffer
}

// NewScanner wraps r in a trace scanner.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{br: bufio.NewReaderSize(r, 1<<16)}
}

// Scan advances to the next action, skipping blanks and comments. It returns
// false at end of input or on error; check Err.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		line, err := s.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Rare oversized line: stitch the pieces in the spill buffer,
			// bounded like the old bufio.Scanner configuration so a
			// newline-free (corrupt or binary) input errors out instead of
			// buffering the whole file.
			s.long = append(s.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = s.br.ReadSlice('\n')
				s.long = append(s.long, line...)
				if len(s.long) > maxLineBytes {
					s.err = fmt.Errorf("line %d: %w", s.line+1, bufio.ErrTooLong)
					return false
				}
			}
			line = s.long
		}
		if err != nil && err != io.EOF {
			s.err = err
			return false
		}
		atEOF := err == io.EOF
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
		}
		if len(line) == 0 && atEOF {
			return false
		}
		s.line++
		a, ok, perr := ParseLineBytes(line)
		if perr != nil {
			s.err = fmt.Errorf("line %d: %w", s.line, perr)
			return false
		}
		if ok {
			s.cur = a
			return true
		}
		if atEOF {
			return false
		}
	}
}

// Action returns the action read by the last successful Scan.
func (s *Scanner) Action() Action { return s.cur }

// Err returns the first error encountered.
func (s *Scanner) Err() error { return s.err }

// ParseAll reads every action from r.
func ParseAll(r io.Reader) ([]Action, error) {
	var out []Action
	s := NewScanner(r)
	for s.Scan() {
		out = append(out, s.Action())
	}
	return out, s.Err()
}

// ProcessFileName returns the conventional per-process trace file name used
// throughout the paper: "SG_process<rank>.trace".
func ProcessFileName(rank int) string {
	return fmt.Sprintf("SG_process%d.trace", rank)
}

// GzipFileName is ProcessFileName's gzip-container variant.
func GzipFileName(rank int) string { return ProcessFileName(rank) + ".gz" }

// BinaryFileName is the per-process file name of the binary codec:
// "SG_process<rank>.tib".
func BinaryFileName(rank int) string {
	return fmt.Sprintf("SG_process%d.tib", rank)
}

// RankFile locates rank's trace file under dir among the three encodings
// tau2ti emits, preferring text, then gzip, then binary. The error names
// every file it tried.
func RankFile(dir string, rank int) (string, error) {
	names := []string{ProcessFileName(rank), GzipFileName(rank), BinaryFileName(rank)}
	for _, name := range names {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("trace: no trace for rank %d under %s (tried %s)",
		rank, dir, strings.Join(names, ", "))
}

// RankFiles resolves the files of ranks 0..n-1 under dir with RankFile, in
// rank order. It stops at the first rank it cannot find and returns the
// paths of the ranks before it with that rank's error. The paths grow with
// the files found, so a count past the directory's ranks costs one failed
// lookup, not a table of n paths.
func RankFiles(dir string, n int) ([]string, error) {
	var paths []string
	for r := 0; r < n; r++ {
		p, err := RankFile(dir, r)
		if err != nil {
			return paths, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// EachRank calls do for ranks 0..n-1 on min(GOMAXPROCS, n) goroutines,
// each taking the next rank in rank order, and returns once all have
// stopped. After a rank fails no further rank is started; every lower rank
// was started before it, so the error returned, the lowest failed rank's,
// is the one a serial loop would return. A panic in do is raised again on
// the caller's goroutine.
func EachRank(n int, do func(r int) error) error {
	width := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	panics := make([]any, width)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[w] = p
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				r := int(next.Add(1) - 1)
				if r >= n {
					return
				}
				if errs[r] = do(r); errs[r] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteSplit writes one trace file per process under dir, named with
// ProcessFileName, and returns the file paths indexed by rank. Ranks with no
// actions still get an (empty) file so deployments stay aligned.
func WriteSplit(dir string, nprocs int, actions []Action) ([]string, error) {
	writers := make([]*Writer, nprocs)
	files := make([]*os.File, nprocs)
	paths := make([]string, nprocs)
	for r := 0; r < nprocs; r++ {
		p := filepath.Join(dir, ProcessFileName(r))
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		files[r] = f
		writers[r] = NewWriter(f)
		paths[r] = p
	}
	cleanup := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for _, a := range actions {
		if a.Proc < 0 || a.Proc >= nprocs {
			cleanup()
			return nil, fmt.Errorf("trace: action for rank %d outside 0..%d", a.Proc, nprocs-1)
		}
		if err := writers[a.Proc].Write(a); err != nil {
			cleanup()
			return nil, err
		}
	}
	for r := 0; r < nprocs; r++ {
		if err := writers[r].Flush(); err != nil {
			cleanup()
			return nil, err
		}
		if err := files[r].Close(); err != nil {
			return nil, err
		}
		files[r] = nil
	}
	return paths, nil
}

// openTrace opens the trace file at path for reading, through gzip for a
// ".gz" name, and reports whether its content starts with the binary magic.
// The caller closes f.
func openTrace(path string) (f *os.File, br *bufio.Reader, isBinary bool, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, nil, false, err
	}
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if r, err = gzip.NewReader(f); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("trace: %s: %w", path, err)
		}
	}
	br = bufio.NewReaderSize(r, 1<<16)
	if isBinary, err = sniffBinary(br); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("trace: %s: %w", path, err)
	}
	return f, br, isBinary, nil
}

// ReadFile loads every action of a trace file; transparently decompresses
// ".gz" files and decodes the binary format based on its magic header.
func ReadFile(path string) ([]Action, error) {
	f, br, isBinary, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var actions []Action
	if isBinary {
		if !strings.HasSuffix(path, ".gz") {
			// Uncompressed binary file: decode it through the memory map
			// instead of draining the reader into a second copy.
			return ReadFileMapped(path)
		}
		actions, err = DecodeBinary(br)
	} else {
		actions, err = ParseAll(br)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return actions, nil
}

// WriteFile writes actions to path in the textual format; a ".gz" suffix
// enables gzip compression (the containment measurement of Section 6.5).
func WriteFile(path string, actions []Action) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := WriteAll(w, actions); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}
