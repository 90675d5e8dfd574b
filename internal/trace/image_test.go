package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeGzip writes data gzip-compressed to path.
func writeGzip(t *testing.T, path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadImageMatchesBinaryFile: whatever file holds a trace, as text or
// as binary records, plain or gzip-compressed, its image is the bytes
// EncodeBinary writes for the same actions.
func TestReadImageMatchesBinaryFile(t *testing.T) {
	actions := randomActions(t, 2000, 17)
	var tib, text bytes.Buffer
	if err := EncodeBinary(&tib, actions); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(&text, actions); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string][]byte{"text.trace": text.Bytes(), "binary.trace": tib.Bytes()}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		writeGzip(t, filepath.Join(dir, name+".gz"), data)
	}
	for _, name := range []string{"text.trace", "text.trace.gz", "binary.trace", "binary.trace.gz"} {
		img, err := ReadImage(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(img, tib.Bytes()) {
			t.Errorf("%s: image of %d B differs from the %d B binary file", name, len(img), tib.Len())
		}
		if cap(img)-len(img) > len(img)/8 {
			t.Errorf("%s: image keeps %d B of slack past its %d B", name, cap(img)-len(img), len(img))
		}
	}
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if img, err := ReadImage(empty); err != nil || !bytes.Equal(img, AppendBinaryHeader(nil)) {
		t.Errorf("empty file: image %q, err %v; want the bare header", img, err)
	}
}

// TestReadImageErrors: a bad line or record fails the load with ReadFile's
// error text, path and position included.
func TestReadImageErrors(t *testing.T) {
	dir := t.TempDir()
	badText := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(badText, []byte(figure1Trace+"p0 compute NOTANUMBER\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var tib bytes.Buffer
	if err := EncodeBinary(&tib, randomActions(t, 10, 3)); err != nil {
		t.Fatal(err)
	}
	badBinary := filepath.Join(dir, "bad-binary.trace")
	if err := os.WriteFile(badBinary, append(tib.Bytes(), 0x7f), 0o644); err != nil {
		t.Fatal(err)
	}
	badGzip := filepath.Join(dir, "bad-binary.trace.gz")
	writeGzip(t, badGzip, append(tib.Bytes(), 0x7f))
	for _, path := range []string{badText, badBinary, badGzip} {
		_, want := ReadFile(path)
		_, err := ReadImage(path)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: ReadImage error %v, want ReadFile's %v", filepath.Base(path), err, want)
		}
	}
	if _, err := ReadImage(badText); err == nil || !strings.Contains(err.Error(), "bad.trace: line 13: ") {
		t.Errorf("bad text: error %v, want it to name the file and line 13", err)
	}
	if _, err := ReadImage(badGzip); err == nil || !strings.Contains(err.Error(), "bad-binary.trace.gz: record 11: ") {
		t.Errorf("bad gzip binary: error %v, want it to name the file and record 11", err)
	}
}

// TestAppendBinaryMatchesWriter: appending records one by one builds the
// bytes BinaryWriter streams, and an invalid action leaves dst unchanged.
func TestAppendBinaryMatchesWriter(t *testing.T) {
	actions := randomActions(t, 500, 23)
	var file bytes.Buffer
	if err := EncodeBinary(&file, actions); err != nil {
		t.Fatal(err)
	}
	img := AppendBinaryHeader(nil)
	for _, a := range actions {
		var err error
		if img, err = AppendBinary(img, a); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(img, file.Bytes()) {
		t.Fatalf("appended image of %d B differs from the %d B written", len(img), file.Len())
	}
	bad := Action{Proc: 0, Type: Send, Peer: -1, Volume: 1}
	if got, err := AppendBinary(img, bad); err == nil || len(got) != len(img) {
		t.Fatalf("invalid action: err %v, %d B appended", err, len(got)-len(img))
	}
}
