package trace

import (
	"bytes"
	"fmt"
	"io"
)

// An image is a whole trace held in memory in the binary format: header and
// records, byte-identical to the .tib file of the same actions. A
// BinaryCursor decodes it in place, so a replay reads a text or gzip trace
// the way it reads a mapped .tib file, at about 7.5 B per action instead of
// the 48 B of a decoded Action.

// EncodeText scans the textual trace r into an image. It accepts exactly
// what ParseAll accepts and fails with ParseAll's error text, and a cursor
// over the image yields ParseAll's actions.
func EncodeText(r io.Reader) ([]byte, error) {
	img := AppendBinaryHeader(nil)
	s := NewScanner(r)
	for s.Scan() {
		img = appendRecord(img, s.Action())
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return clip(img), nil
}

// clip drops the slack a regrown image keeps: an image stays resident as
// long as its trace set.
func clip(img []byte) []byte {
	if cap(img)-len(img) > len(img)/8 {
		return bytes.Clone(img)
	}
	return img
}

// ReadImage loads the trace file at path as an image, reading it the way
// ReadFile does: a ".gz" file is decompressed, and content that starts with
// the binary magic is taken as binary records whatever the file's name,
// checked record by record. Any other content is encoded from text, and its
// errors read "trace: <path>: line N: …" as ReadFile's do.
func ReadImage(path string) ([]byte, error) {
	f, br, isBinary, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var img []byte
	if isBinary {
		if img, err = io.ReadAll(br); err == nil {
			err = checkRecords(img)
			img = clip(img)
		}
	} else {
		img, err = EncodeText(br)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return img, nil
}

// checkRecords decodes every record of a binary stream, for the loads that
// reject a bad record up front rather than when a replay reaches it.
func checkRecords(data []byte) error {
	c, err := NewBinaryCursor(data)
	if err != nil {
		return err
	}
	for {
		_, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
	}
}
