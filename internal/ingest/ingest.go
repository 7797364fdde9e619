// Package ingest is the format-neutral entry point for getting trace
// data into Aftermath. Every supported input format — the native
// binary stream, its gzip-compressed form, columnar store snapshots,
// and foreign span streams (stdouttrace / OTLP-JSON) — registers a
// Format: a content sniffer plus the openers the format supports. All
// loading paths (aftermath.Open, the hub's directory loader, -follow)
// route through the one registry, so a trace is recognized by its
// bytes, never its file name, and every path agrees on what a given
// file is.
package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest/otlp"
	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
)

// SniffLen is how many leading bytes Detect reads to classify a file.
// Every registered sniffer must decide on at most this prefix.
const SniffLen = 4096

// maxGzipDepth bounds transparent decompression nesting; beyond this a
// file is hostile, not convenient.
const maxGzipDepth = 4

// Format is one registered input format.
type Format struct {
	// Name identifies the format in errors and listings.
	Name string
	// Sniff reports whether a file starting with head (up to SniffLen
	// bytes; shorter iff the file is shorter) is this format.
	Sniff func(head []byte) bool
	// OpenFile loads a trace from a file the format must access
	// directly (mmap); nil for stream-decodable formats.
	OpenFile func(path string) (*core.Trace, error)
	// OpenReader loads a trace from a byte stream; nil for formats
	// that only open files directly (store snapshots).
	OpenReader func(r io.Reader) (*core.Trace, error)
	// NewDecoder returns an incremental decoder for live tailing; nil
	// marks the format untailable (compressed or mmap-only).
	NewDecoder func(r io.Reader) trace.Decoder
}

// Tailable reports whether the format supports incremental live
// ingest (-follow and the hub's follow upgrade).
func (f *Format) Tailable() bool { return f.NewDecoder != nil }

// formats is the registry, in sniff order. Store first: its magic is
// the most specific. The gzip wrapper re-dispatches on the
// decompressed head, so "gzip" means "gzip around some recognized
// trace format".
var formats []Format

// Populated in init: the gzip entry re-enters the registry through
// Detect, which a plain var initializer would report as a cycle.
func init() {
	formats = []Format{
		{
			Name:     "store",
			Sniff:    func(head []byte) bool { return bytes.HasPrefix(head, []byte(store.Magic)) },
			OpenFile: core.OpenStore,
		},
		{
			Name:       "gzip",
			Sniff:      trace.SniffGzip,
			OpenReader: func(r io.Reader) (*core.Trace, error) { return openGzip(r, 1) },
		},
		{
			Name:       "native",
			Sniff:      trace.SniffNative,
			OpenReader: core.FromReader,
			NewDecoder: func(r io.Reader) trace.Decoder { return trace.NewStreamReader(r) },
		},
		{
			Name:       "spans",
			Sniff:      otlp.SniffSpans,
			OpenReader: func(r io.Reader) (*core.Trace, error) { return core.FromDecoder(otlp.NewDecoder(r)) },
			NewDecoder: func(r io.Reader) trace.Decoder { return otlp.NewDecoder(r) },
		},
	}
}

// Detect classifies a file head against the registry.
func Detect(head []byte) (*Format, bool) {
	for i := range formats {
		if formats[i].Sniff(head) {
			return &formats[i], true
		}
	}
	return nil, false
}

// DetectFile reads the head of the file at path and classifies it.
// Unrecognized content returns a nil format and nil error — callers
// decide whether that is an error (explicit argument) or a file to
// skip (directory scan).
func DetectFile(path string) (*Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, SniffLen)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	fm, ok := Detect(head[:n])
	if !ok {
		return nil, nil
	}
	return fm, nil
}

// Open loads and indexes the trace file at path, whatever its format:
// the single content-based detection path behind aftermath.Open and
// the hub's directory loader.
func Open(path string) (*core.Trace, error) {
	fm, err := DetectFile(path)
	if err != nil {
		return nil, err
	}
	if fm == nil {
		return nil, fmt.Errorf("%s: unrecognized trace format (expected a native trace, a gzip-compressed trace, a store snapshot, or a span stream)", path)
	}
	if fm.OpenFile != nil {
		return fm.OpenFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := fm.OpenReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// OpenReader loads a trace from a byte stream, detecting the format
// from its head. Formats that cannot load from a stream (store
// snapshots) are rejected with a descriptive error.
func OpenReader(r io.Reader) (*core.Trace, error) {
	return openReaderDepth(r, 0)
}

func openReaderDepth(r io.Reader, depth int) (*core.Trace, error) {
	head := make([]byte, SniffLen)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	head = head[:n]
	fm, ok := Detect(head)
	if !ok {
		return nil, fmt.Errorf("unrecognized trace format in stream")
	}
	if fm.OpenReader == nil {
		return nil, fmt.Errorf("%s: this format cannot load from a stream; open the file directly", fm.Name)
	}
	full := io.MultiReader(bytes.NewReader(head), r)
	if fm.Name == "gzip" {
		return openGzip(full, depth+1)
	}
	return fm.OpenReader(full)
}

// openGzip decompresses one gzip layer and re-dispatches on the inner
// content, so a compressed span stream or even a doubly compressed
// trace opens like any other file.
func openGzip(r io.Reader, depth int) (*core.Trace, error) {
	if depth > maxGzipDepth {
		return nil, fmt.Errorf("gzip: more than %d nested compression layers", maxGzipDepth)
	}
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	tr, err := openReaderDepth(gz, depth)
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	return tr, nil
}

// ImportSpans loads a foreign span stream (stdouttrace line-delimited
// JSON or OTLP-JSON) as a fully indexed trace and returns the
// importer's inference report alongside.
func ImportSpans(r io.Reader) (*core.Trace, *otlp.Report, error) {
	d := otlp.NewDecoder(r)
	tr, err := core.FromDecoder(d)
	if err != nil {
		return nil, nil, err
	}
	return tr, d.Report(), nil
}

// nativeHead is the header a native stream starts with, as
// trace.Writer writes it.
var nativeHead = func() []byte {
	var b bytes.Buffer
	trace.NewWriter(&b).Flush()
	return b.Bytes()
}()

// OpenStream opens the trace file at path for live tailing and
// returns the raw handle together with the format's incremental
// decoder. Formats that cannot be decoded incrementally while growing
// (gzip, store snapshots) are rejected. A file holding a proper prefix
// of the native header — none of it, when the file is still empty — is
// admitted as a native stream whose decoder waits for the rest of the
// header: the producer has not flushed it whole yet. Those bytes are
// also a prefix of the store magic, but a store file only appears by
// rename, whole.
func OpenStream(path string) (io.ReadCloser, trace.Decoder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	head := make([]byte, SniffLen)
	n, rerr := io.ReadFull(f, head)
	if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
		f.Close()
		return nil, nil, rerr
	}
	head = head[:n]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	fm, ok := Detect(head)
	if !ok {
		if bytes.HasPrefix(nativeHead, head) {
			// The stream decoder's own magic check rejects whatever else
			// eventually arrives.
			return f, trace.NewStreamReader(f), nil
		}
		f.Close()
		return nil, nil, fmt.Errorf("%s: unrecognized trace format", path)
	}
	if !fm.Tailable() {
		f.Close()
		if fm.Name == "gzip" {
			return nil, nil, fmt.Errorf("%s: cannot tail a gzip-compressed trace; decompress it first", path)
		}
		return nil, nil, fmt.Errorf("%s: cannot tail a %s file; open it as a batch trace instead", path, fm.Name)
	}
	return f, fm.NewDecoder(f), nil
}

// Follow opens path for live tailing into lv with the detected
// format's decoder, performs the initial feed and starts the poll
// loop: the format-neutral aftermath.FollowTrace path.
func Follow(lv *core.Live, path string, pollEvery time.Duration) (*core.Follower, error) {
	rc, dec, err := OpenStream(path)
	if err != nil {
		return nil, err
	}
	return core.FollowDecoder(lv, path, rc, dec, pollEvery)
}
