package ingest

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// nativeTraceBytes writes a minimal but complete native trace.
func nativeTraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{
		Name: "test", NumNodes: 1,
		NodeOfCPU: []int32{0, 0},
		Distance:  []int32{0},
	}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "work"}))
	must(w.WriteTask(trace.Task{ID: 10, Type: 1, Created: 5, CreatorCPU: 0}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 100, End: 300, Task: 10}))
	must(w.Flush())
	return buf.Bytes()
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const spanLine = `{"Name":"x","SpanContext":{"TraceID":"01","SpanID":"0a"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z"}` + "\n"

// TestDetect: every registered sniffer classifies its own head and
// rejects the others' — the registry's one-format-per-file invariant.
func TestDetect(t *testing.T) {
	native := nativeTraceBytes(t)
	cases := []struct {
		name string
		head []byte
		want string // "" = unrecognized
	}{
		{"native", native, "native"},
		{"gzip", gzipped(t, native), "gzip"},
		{"store", []byte("ATMSTOR1 rest"), "store"},
		{"spans stdouttrace", []byte(spanLine), "spans"},
		{"spans otlp", []byte(`{"resourceSpans":[]}`), "spans"},
		{"empty", nil, ""},
		{"text", []byte("hello, not a trace\n"), ""},
		{"plain json", []byte(`{"hello":"world"}`), ""},
	}
	for _, c := range cases {
		head := c.head
		if len(head) > SniffLen {
			head = head[:SniffLen]
		}
		fm, ok := Detect(head)
		if (c.want == "") != !ok {
			t.Errorf("Detect(%s): ok=%v, want %v", c.name, ok, c.want != "")
			continue
		}
		if ok && fm.Name != c.want {
			t.Errorf("Detect(%s) = %q, want %q", c.name, fm.Name, c.want)
		}
	}
}

// TestOpenAllFormats: one content-detected Open path loads all four
// formats — and gzip re-dispatches on the decompressed head, so a
// compressed span stream works too, with any file name.
func TestOpenAllFormats(t *testing.T) {
	dir := t.TempDir()
	native := nativeTraceBytes(t)
	spanData, err := os.ReadFile("otlp/testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}

	storePath := filepath.Join(dir, "snapshot.weird-ext")
	{
		tr, err := core.FromReader(bytes.NewReader(native))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.SaveStore(tr, storePath); err != nil {
			t.Fatal(err)
		}
	}

	paths := map[string]string{
		"native":         writeFile(t, dir, "a.bin", native),
		"gzip of native": writeFile(t, dir, "b.dat", gzipped(t, native)),
		"store":          storePath,
		"spans":          writeFile(t, dir, "c.log", spanData),
		"gzip of spans":  writeFile(t, dir, "d", gzipped(t, spanData)),
	}
	for name, path := range paths {
		tr, err := Open(path)
		if err != nil {
			t.Errorf("Open(%s): %v", name, err)
			continue
		}
		if len(tr.Tasks) == 0 {
			t.Errorf("Open(%s): no tasks loaded", name)
		}
	}

	if _, err := Open(writeFile(t, dir, "junk", []byte("not a trace"))); err == nil ||
		!strings.Contains(err.Error(), "unrecognized trace format") {
		t.Errorf("Open(junk) = %v, want unrecognized-format error", err)
	}
}

// TestOpenReaderRejectsStoreStream: store snapshots are mmap-only; a
// streamed one (even behind gzip) must fail with a pointer to open the
// file directly, not a decode error.
func TestOpenReaderRejectsStoreStream(t *testing.T) {
	storeHead := []byte("ATMSTOR1 pretend snapshot bytes")
	for name, r := range map[string]*bytes.Reader{
		"plain": bytes.NewReader(storeHead),
		"gzip":  bytes.NewReader(gzipped(t, storeHead)),
	} {
		_, err := OpenReader(r)
		if err == nil || !strings.Contains(err.Error(), "cannot load from a stream") {
			t.Errorf("OpenReader(%s store) = %v, want stream rejection", name, err)
		}
	}
}

// TestOpenReaderGzipBomb: nesting beyond maxGzipDepth is hostile input.
func TestOpenReaderGzipBomb(t *testing.T) {
	data := nativeTraceBytes(t)
	for i := 0; i <= maxGzipDepth+1; i++ {
		data = gzipped(t, data)
	}
	if _, err := OpenReader(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "nested compression") {
		t.Errorf("OpenReader(deep gzip) = %v, want nesting rejection", err)
	}
}

// TestOpenStream: tailability is a format property — native and span
// streams tail, gzip and store do not, and a still-empty file is
// admitted as a native stream whose header has not been flushed yet.
func TestOpenStream(t *testing.T) {
	dir := t.TempDir()

	for name, data := range map[string][]byte{
		"native": nativeTraceBytes(t),
		"spans":  []byte(spanLine),
		"empty":  {},
	} {
		path := writeFile(t, dir, "ok-"+name, data)
		rc, dec, err := OpenStream(path)
		if err != nil {
			t.Errorf("OpenStream(%s): %v", name, err)
			continue
		}
		if dec == nil {
			t.Errorf("OpenStream(%s): nil decoder", name)
		}
		rc.Close()
	}

	gzPath := writeFile(t, dir, "t.gz", gzipped(t, nativeTraceBytes(t)))
	if _, _, err := OpenStream(gzPath); err == nil ||
		!strings.Contains(err.Error(), "decompress it first") {
		t.Errorf("OpenStream(gzip) = %v, want decompress hint", err)
	}

	storePath := writeFile(t, dir, "t.store", []byte("ATMSTOR1 rest"))
	if _, _, err := OpenStream(storePath); err == nil ||
		!strings.Contains(err.Error(), "cannot tail a store file") {
		t.Errorf("OpenStream(store) = %v, want untailable error", err)
	}

	junkPath := writeFile(t, dir, "t.junk", []byte("some notes\n"))
	if _, _, err := OpenStream(junkPath); err == nil {
		t.Error("OpenStream(junk) succeeded, want unrecognized-format error")
	}
}

// TestOpenStreamHeaderPrefix: a file holding 0–4 bytes is admitted
// for tailing iff those bytes are a prefix of a native stream — its
// producer has not flushed the whole header yet — and the admitted
// stream decodes once the rest of the trace arrives. Other bytes,
// including the first four of the store magic, are refused.
func TestOpenStreamHeaderPrefix(t *testing.T) {
	data := nativeTraceBytes(t)
	for _, tc := range []struct {
		head  string
		admit bool
	}{
		{"", true}, {"A", true}, {"AT", true}, {"ATM", true}, {"ATMG", true},
		{"B", false}, {"AX", false}, {"ATX", false}, {"TMG", false}, {"ATMS", false},
	} {
		path := writeFile(t, t.TempDir(), "grow.atm", []byte(tc.head))
		rc, dec, err := OpenStream(path)
		if !tc.admit {
			if err == nil || !strings.Contains(err.Error(), "unrecognized trace format") {
				t.Errorf("OpenStream(%q) = %v, want unrecognized-format error", tc.head, err)
			}
			if err == nil {
				rc.Close()
			}
			continue
		}
		if err != nil {
			t.Errorf("OpenStream(%q): %v", tc.head, err)
			continue
		}
		if !strings.HasPrefix(string(data), tc.head) {
			t.Fatalf("precondition: %q is not a prefix of a native trace", tc.head)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := dec.Poll(func(*trace.RecordBatch) error { return nil })
		rc.Close()
		if err != nil || n == 0 {
			t.Errorf("OpenStream(%q): tailing the grown file read %d records, %v", tc.head, n, err)
		}
	}
}

// TestDetectFile: unrecognized content is (nil, nil) so directory scans
// can skip it, while recognized files report their format.
func TestDetectFile(t *testing.T) {
	dir := t.TempDir()

	fm, err := DetectFile(writeFile(t, dir, "a", nativeTraceBytes(t)))
	if err != nil || fm == nil || fm.Name != "native" {
		t.Errorf("DetectFile(native) = %v, %v", fm, err)
	}
	fm, err = DetectFile(writeFile(t, dir, "b", []byte("notes")))
	if err != nil || fm != nil {
		t.Errorf("DetectFile(junk) = %v, %v, want nil,nil", fm, err)
	}
	if _, err := DetectFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("DetectFile(missing) did not error")
	}
}
