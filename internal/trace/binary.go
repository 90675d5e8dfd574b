package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// The binary codec is the future-work item of Section 7 ("we also aim at
// exploring techniques to reduce the size of the traces, e.g., using a
// binary format"). Records are self-describing and delta-friendly:
//
//	magic "TITB" | version byte | records...
//
// Each record starts with the action type byte, followed by the process
// rank as an unsigned varint, the peer (when the type has one) as an
// unsigned varint, and each volume as an 8-byte little-endian float64. A
// receive with no explicit volume sets the high bit of the type byte.
//
// The codec has one record encoder, appendRecord, exported with validation
// as AppendBinary. BinaryWriter streams its records to files, and
// EncodeText, ReadImage and AppendBinary's callers build in-memory images
// with it, so an image is byte-identical to the .tib file of the same
// trace.
const (
	binaryMagic   = "TITB"
	binaryVersion = 1

	flagNoVolume = 0x80
)

// sniffBinary peeks at the reader to detect the binary magic.
func sniffBinary(br *bufio.Reader) (bool, error) {
	head, err := br.Peek(len(binaryMagic))
	if err != nil {
		if errors.Is(err, io.EOF) {
			return false, nil // short file: treat as (possibly empty) text
		}
		return false, err
	}
	return string(head) == binaryMagic, nil
}

// AppendBinaryHeader appends the binary header, magic and version, to dst:
// the start of every image and .tib file.
func AppendBinaryHeader(dst []byte) []byte {
	return append(append(dst, binaryMagic...), binaryVersion)
}

// AppendBinary validates a and appends its binary record to dst. On a
// validation error dst is returned unchanged.
func AppendBinary(dst []byte, a Action) ([]byte, error) {
	if err := a.Validate(); err != nil {
		return dst, err
	}
	return appendRecord(dst, a), nil
}

// appendRecord appends the record of a validated action.
func appendRecord(dst []byte, a Action) []byte {
	tb := byte(a.Type)
	if (a.Type == Recv || a.Type == Irecv) && !a.HasVolume {
		tb |= flagNoVolume
	}
	dst = binary.AppendUvarint(append(dst, tb), uint64(a.Proc))
	switch a.Type {
	case Compute, Bcast, CommSize, Gather, AllGather, AllToAll, Scatter:
		dst = appendFloat(dst, a.Volume)
	case Send, Isend:
		dst = appendFloat(binary.AppendUvarint(dst, uint64(a.Peer)), a.Volume)
	case Recv, Irecv:
		dst = binary.AppendUvarint(dst, uint64(a.Peer))
		if a.HasVolume {
			dst = appendFloat(dst, a.Volume)
		}
	case Reduce, AllReduce:
		dst = appendFloat(appendFloat(dst, a.Volume), a.Volume2)
	case Barrier, Wait, WaitAll:
	}
	return dst
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// BinaryWriter streams actions in the binary format.
type BinaryWriter struct {
	bw      *bufio.Writer
	rec     []byte // the record being written, reused
	started bool
}

// NewBinaryWriter wraps w; the header is emitted lazily on first write so an
// unused writer produces no bytes.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (bw *BinaryWriter) ensureHeader() error {
	if bw.started {
		return nil
	}
	bw.started = true
	_, err := bw.bw.Write(AppendBinaryHeader(bw.rec[:0]))
	return err
}

// Write appends one action record.
func (bw *BinaryWriter) Write(a Action) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := bw.ensureHeader(); err != nil {
		return err
	}
	bw.rec = appendRecord(bw.rec[:0], a)
	_, err := bw.bw.Write(bw.rec)
	return err
}

// Flush drains the internal buffer.
func (bw *BinaryWriter) Flush() error {
	if err := bw.ensureHeader(); err != nil {
		return err
	}
	return bw.bw.Flush()
}

// EncodeBinary renders a full action list in the binary format.
func EncodeBinary(w io.Writer, actions []Action) error {
	bw := NewBinaryWriter(w)
	for _, a := range actions {
		if err := bw.Write(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeBinary reads every action from a binary-format stream. It drains r
// into memory and decodes with DecodeBinaryBytes, so the peak cost is the
// raw stream plus the decoded actions; callers that can map or already hold
// the bytes should use DecodeBinaryBytes or a BinaryCursor directly to
// decode in place (ReadFile routes uncompressed binary files through
// ReadFileMapped for exactly that reason).
func DecodeBinary(r io.Reader) ([]Action, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBinaryBytes(data)
}
