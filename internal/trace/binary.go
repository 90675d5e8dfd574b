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

// BinaryWriter streams actions in the binary format.
type BinaryWriter struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
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
	if _, err := bw.bw.WriteString(binaryMagic); err != nil {
		return err
	}
	return bw.bw.WriteByte(binaryVersion)
}

func (bw *BinaryWriter) putUvarint(v uint64) error {
	n := binary.PutUvarint(bw.scratch[:], v)
	_, err := bw.bw.Write(bw.scratch[:n])
	return err
}

func (bw *BinaryWriter) putFloat(v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := bw.bw.Write(buf[:])
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
	tb := byte(a.Type)
	if (a.Type == Recv || a.Type == Irecv) && !a.HasVolume {
		tb |= flagNoVolume
	}
	if err := bw.bw.WriteByte(tb); err != nil {
		return err
	}
	if err := bw.putUvarint(uint64(a.Proc)); err != nil {
		return err
	}
	switch a.Type {
	case Compute, Bcast, CommSize, Gather, AllGather, AllToAll, Scatter:
		if err := bw.putFloat(a.Volume); err != nil {
			return err
		}
	case Send, Isend:
		if err := bw.putUvarint(uint64(a.Peer)); err != nil {
			return err
		}
		if err := bw.putFloat(a.Volume); err != nil {
			return err
		}
	case Recv, Irecv:
		if err := bw.putUvarint(uint64(a.Peer)); err != nil {
			return err
		}
		if a.HasVolume {
			if err := bw.putFloat(a.Volume); err != nil {
				return err
			}
		}
	case Reduce, AllReduce:
		if err := bw.putFloat(a.Volume); err != nil {
			return err
		}
		if err := bw.putFloat(a.Volume2); err != nil {
			return err
		}
	case Barrier, Wait, WaitAll:
	}
	return nil
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
