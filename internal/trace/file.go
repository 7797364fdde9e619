package trace

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strings"
)

// FileWriter is a Writer bound to a file on disk, with transparent
// gzip compression when the path ends in ".gz" (Section VI-A: traces
// are compressed with standard tools and opened transparently).
type FileWriter struct {
	*Writer
	file *os.File
	gz   *gzip.Writer
}

// Create creates a trace file at path. If path ends in ".gz" the
// stream is gzip-compressed.
func Create(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fw := &FileWriter{file: f}
	if strings.HasSuffix(path, ".gz") {
		fw.gz = gzip.NewWriter(f)
		fw.Writer = NewWriter(fw.gz)
	} else {
		fw.Writer = NewWriter(f)
	}
	return fw, nil
}

// Close flushes buffered data and closes the file.
func (fw *FileWriter) Close() error {
	err := fw.Flush()
	if fw.gz != nil {
		if e := fw.gz.Close(); err == nil {
			err = e
		}
	}
	if e := fw.file.Close(); err == nil {
		err = e
	}
	return err
}

// gzipMagic is the two-byte gzip stream signature.
var gzipMagic = [2]byte{0x1f, 0x8b}

// SniffGzip reports whether head begins with the gzip stream
// signature. This is the single gzip detection used everywhere —
// transparent decompression in Open and the ingest format registry,
// which also refuses to tail gzip — so a renamed or extension-less
// compressed trace is recognized identically on every path. A head
// shorter than the two magic bytes is never gzip.
func SniffGzip(head []byte) bool {
	return len(head) >= 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1]
}

// SniffNative reports whether head begins with the native binary trace
// magic. Like SniffGzip it is the single native-format detection the
// ingest registry builds on.
func SniffNative(head []byte) bool {
	return len(head) >= len(magic) &&
		head[0] == magic[0] && head[1] == magic[1] &&
		head[2] == magic[2] && head[3] == magic[3]
}

// Open opens a trace file for reading, transparently decompressing
// gzip streams. Compression is detected by content, not extension, so
// renamed files still open.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(2)
	if err == nil && SniffGzip(head) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &gzipReadCloser{gz: gz, file: f}, nil
	}
	return &bufReadCloser{r: br, file: f}, nil
}

// ReadFile reads all records of the trace file at path into h.
func ReadFile(path string, h Handler) error {
	rc, err := Open(path)
	if err != nil {
		return err
	}
	defer rc.Close()
	return Read(rc, h)
}

type gzipReadCloser struct {
	gz   *gzip.Reader
	file *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzipReadCloser) Close() error {
	err := g.gz.Close()
	if e := g.file.Close(); err == nil {
		err = e
	}
	return err
}

type bufReadCloser struct {
	r    *bufio.Reader
	file *os.File
}

func (b *bufReadCloser) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *bufReadCloser) Close() error { return b.file.Close() }
