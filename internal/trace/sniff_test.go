package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

// TestSniffGzipEdges: the shared gzip sniff must reject every head
// shorter than the two magic bytes and anything not starting with
// them — including bytes taken from the middle or tail of a real gzip
// stream, where the magic only ever appears at the front.
func TestSniffGzipEdges(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(bytes.Repeat([]byte("aftermath trace bytes "), 64)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	cases := []struct {
		name string
		head []byte
		want bool
	}{
		{"nil", nil, false},
		{"empty", []byte{}, false},
		{"one byte of magic", []byte{0x1f}, false},
		{"full magic", []byte{0x1f, 0x8b}, true},
		{"magic plus payload", stream, true},
		{"second byte only", []byte{0x8b, 0x1f}, false},
		{"gzip stream tail", stream[len(stream)-2:], false},
		{"gzip stream middle", stream[2:], false},
		{"native magic", []byte("ATMG"), false},
	}
	for _, c := range cases {
		if got := SniffGzip(c.head); got != c.want {
			t.Errorf("SniffGzip(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSniffNative: the native magic sniff mirrors the gzip one — a
// short head is never a match.
func TestSniffNative(t *testing.T) {
	cases := []struct {
		name string
		head []byte
		want bool
	}{
		{"nil", nil, false},
		{"short", []byte("ATM"), false},
		{"exact", []byte("ATMG"), true},
		{"with version", []byte("ATMG\x01"), true},
		{"gzip", []byte{0x1f, 0x8b, 0x08, 0x00}, false},
	}
	for _, c := range cases {
		if got := SniffNative(c.head); got != c.want {
			t.Errorf("SniffNative(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestOpenShortFile: files shorter than the gzip magic must open as
// plain streams (the sniff used to Peek(2) and any error path here
// risks rejecting legitimate sub-2-byte files).
func TestOpenShortFile(t *testing.T) {
	for _, content := range [][]byte{{}, {0x1f}} {
		path := filepath.Join(t.TempDir(), "short")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		rc, err := Open(path)
		if err != nil {
			t.Fatalf("Open(%d-byte file): %v", len(content), err)
		}
		rc.Close()
	}
}
