package replay

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"tireplay/internal/simx"
)

// TimedTraceWriter renders the timed trace of a simulated execution: one
// line per completed activity with its simulated start and end times. This
// is the "timed trace" output of Figure 4, which downstream profile analysis
// tools could consume. A compute record reads
//
//	<end> <proc> compute <flops> start=<start> host=<host>
//
// and a transfer record
//
//	<end> <src> send <dst> <bytes> start=<start>
//
// with times in fmt's %.9f layout and volumes in its %g layout, byte for
// byte. The writer formats each line into one reused buffer without fmt, so
// a record costs no allocation.
//
// Write errors are sticky: the first failure (typically a short write to a
// full disk) is retained, every later record is dropped rather than
// appended to a hole, and Flush reports that first error — so a truncated
// timed trace fails the replay instead of passing for a complete one (the
// CI byte-identity diffs depend on a written trace being whole).
type TimedTraceWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	line  []byte // the record being formatted; reused across records
	lines int64
	err   error // first write error; sticky
}

// NewTimedTraceWriter wraps w.
func NewTimedTraceWriter(w io.Writer) *TimedTraceWriter {
	return &TimedTraceWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Compute implements simx.Tracer.
func (t *TimedTraceWriter) Compute(proc, host string, flops, start, end float64) {
	t.mu.Lock()
	if t.err == nil {
		b := appendSeconds(t.line[:0], end)
		b = append(b, ' ')
		b = append(b, proc...)
		b = append(b, " compute "...)
		b = strconv.AppendFloat(b, flops, 'g', -1, 64)
		b = append(b, " start="...)
		b = appendSeconds(b, start)
		b = append(b, " host="...)
		b = append(b, host...)
		t.writeLine(b)
	}
	t.mu.Unlock()
}

// Comm implements simx.Tracer.
func (t *TimedTraceWriter) Comm(src, dst string, bytes, start, end float64) {
	t.mu.Lock()
	if t.err == nil {
		b := appendSeconds(t.line[:0], end)
		b = append(b, ' ')
		b = append(b, src...)
		b = append(b, " send "...)
		b = append(b, dst...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, bytes, 'g', -1, 64)
		b = append(b, " start="...)
		b = appendSeconds(b, start)
		t.writeLine(b)
	}
	t.mu.Unlock()
}

// writeLine terminates the formatted record and hands it to the buffered
// writer, keeping the (possibly grown) buffer for the next record. The
// caller holds mu.
func (t *TimedTraceWriter) writeLine(b []byte) {
	b = append(b, '\n')
	t.line = b
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
	} else {
		t.lines++
	}
}

// appendSeconds appends v exactly as fmt's %.9f prints it. A finite v with
// |v| < 9e9 is mant*2^-k; |v|*1e9 rounded half to even is then the 128-bit
// product mant*1e9 shifted right by k, and fits a uint64 (below 9e18), so
// the digits come from integer arithmetic instead of strconv's
// multiprecision path for fixed precision. Everything else (huge
// magnitudes, infinities, NaN) takes strconv, which is what fmt uses.
func appendSeconds(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	exp := int(u>>52) & 0x7ff
	if exp == 0x7ff || math.Abs(v) >= 9e9 {
		return strconv.AppendFloat(b, v, 'f', 9, 64)
	}
	mant := u & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// v = ±mant * 2^-k with k >= 19: |v| < 9e9 < 2^34 and mant >= 2^52
	// for every normal v.
	n := nanosRoundHalfEven(mant, uint(1075-exp))
	if u>>63 != 0 {
		b = append(b, '-') // fmt keeps the sign of -0 and of tiny negatives
	}
	b = strconv.AppendUint(b, n/1e9, 10)
	var frac [10]byte
	frac[0] = '.'
	for i, f := 9, n%1e9; i > 0; i-- {
		frac[i] = byte('0' + f%10)
		f /= 10
	}
	return append(b, frac[:]...)
}

// nanosRoundHalfEven returns mant*1e9 / 2^k rounded half to even, for
// mant < 2^53, k >= 1 and a quotient below 2^63 (appendSeconds' 9e9 bound).
// The product is below 2^83, so any k >= 84 rounds to 0.
func nanosRoundHalfEven(mant uint64, k uint) uint64 {
	if k >= 84 {
		return 0
	}
	hi, lo := bits.Mul64(mant, 1e9)
	// q2 = product >> (k-1): the quotient with the rounding bit below it;
	// sticky reports whether any lower bit is set.
	s := k - 1
	var q2 uint64
	var sticky bool
	if s < 64 {
		q2 = hi<<(64-s) | lo>>s
		sticky = lo&(1<<s-1) != 0
	} else {
		q2 = hi >> (s - 64)
		sticky = lo != 0 || hi&(1<<(s-64)-1) != 0
	}
	q := q2 >> 1
	if q2&1 != 0 && (sticky || q&1 != 0) {
		q++
	}
	return q
}

// Lines reports the number of records successfully written.
func (t *TimedTraceWriter) Lines() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lines
}

// Err reports the sticky first write error, nil while all records landed.
func (t *TimedTraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush drains the buffer; call once the replay has finished. It returns
// the first error of the writer's lifetime — a record that failed mid-run
// surfaces here even when the final flush itself succeeds.
func (t *TimedTraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); t.err == nil && err != nil {
		t.err = err
	}
	return t.err
}

// ReadTimedTrace parses a timed trace (the TimedTraceWriter line format)
// and replays each record into tr in file order, returning the record
// count. This is the read side of the Figure 4 timed-trace output: it turns
// a written trace back into the event stream a live replay would have
// produced, so the metrics engine analyses files and in-memory sinks
// through one code path.
func ReadTimedTrace(r io.Reader, tr simx.Tracer) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n++
		if err := parseTimedLine(line, tr); err != nil {
			return n, fmt.Errorf("timed trace line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// parseTimedLine decodes one timed-trace record and forwards it to tr. It
// rejects a record no replay writes: a time that is not finite, a start
// before 0 or after its end, a volume that is negative or not finite.
func parseTimedLine(line string, tr simx.Tracer) error {
	f := strings.Fields(line)
	if len(f) < 3 {
		return fmt.Errorf("short record %q", line)
	}
	end, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return fmt.Errorf("bad end time %q", f[0])
	}
	switch f[2] {
	case "compute":
		// end proc compute flops start=S host=H
		if len(f) != 6 {
			return fmt.Errorf("compute record needs 6 fields, has %d", len(f))
		}
		flops, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("bad flops %q", f[3])
		}
		start, err := timedField(f[4], "start=")
		if err != nil {
			return err
		}
		host, ok := strings.CutPrefix(f[5], "host=")
		if !ok {
			return fmt.Errorf("missing host field in %q", line)
		}
		if err := checkTimedRecord(start, end, flops, "flops"); err != nil {
			return err
		}
		tr.Compute(f[1], host, flops, start, end)
	case "send":
		// end src send dst bytes start=S
		if len(f) != 6 {
			return fmt.Errorf("send record needs 6 fields, has %d", len(f))
		}
		bytes, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return fmt.Errorf("bad bytes %q", f[4])
		}
		start, err := timedField(f[5], "start=")
		if err != nil {
			return err
		}
		if err := checkTimedRecord(start, end, bytes, "bytes"); err != nil {
			return err
		}
		tr.Comm(f[1], f[3], bytes, start, end)
	default:
		return fmt.Errorf("unknown record kind %q", f[2])
	}
	return nil
}

// checkTimedRecord checks a record's times and volume: finite, with
// 0 <= start <= end and volume >= 0. The comparisons reject NaN too.
func checkTimedRecord(start, end, vol float64, unit string) error {
	if !(0 <= start && start <= end && end <= math.MaxFloat64) {
		return fmt.Errorf("bad times: start %g, end %g (want finite 0 <= start <= end)", start, end)
	}
	if !(0 <= vol && vol <= math.MaxFloat64) {
		return fmt.Errorf("bad %s %g (want finite and >= 0)", unit, vol)
	}
	return nil
}

func timedField(s, prefix string) (float64, error) {
	v, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("missing %s field, got %q", strings.TrimSuffix(prefix, "="), s)
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", strings.TrimSuffix(prefix, "="), v)
	}
	return x, nil
}
