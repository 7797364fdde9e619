// Package store implements the on-disk columnar snapshot format: a
// single file holding raw, 8-byte-aligned column sections (fixed-width
// event structs dumped host-endian) plus one varint-encoded metadata
// blob describing them. Files are written once (Writer) and opened
// read-only with mmap (Mapped), so an open costs O(touched pages)
// regardless of file size: column sections become Go slices aliasing
// the mapping (View) without copying or decoding.
//
// The format is deliberately host-specific: sections are raw memory
// images of Go structs, validated at open time by an endianness probe
// in the header and a layout hash recorded in the metadata by the
// writer (see internal/core). A file written on an incompatible
// machine or by an incompatible build fails to open; it never
// misparses.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"unsafe"
)

// Magic identifies a columnar store file.
const Magic = "ATMSTOR1"

const (
	version = 1
	// endianProbe is written as a host-endian uint64; a reader whose
	// byte order differs sees the reversed value and rejects the file.
	endianProbe = 0x0102030405060708
	headerSize  = 48 // magic[8] version[4] pad[4] probe[8] metaOff[8] metaLen[8] reserved[8]
)

// Ref locates one section inside a store file.
type Ref struct {
	Off   int64 // byte offset of the section (8-aligned, ≥ headerSize)
	Bytes int64 // section payload length in bytes
}

// Zero reports whether the ref denotes an absent (empty) section.
func (r Ref) Zero() bool { return r.Bytes == 0 }

// ---- Writing ----

// Writer builds a store file. Sections are appended with Put/Raw and
// the file is sealed with Finish, which writes the metadata blob and
// patches the header. The file is written to a temporary name and
// renamed into place on Finish, so a crashed or failed write never
// leaves a half-written file under the target path.
type Writer struct {
	f    *os.File
	path string
	tmp  string
	off  int64
	err  error
}

// Create starts writing a store file that will appear at path once
// Finish succeeds.
func Create(path string) (*Writer, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path, tmp: f.Name()}
	var hdr [headerSize]byte
	if _, err := f.Write(hdr[:]); err != nil {
		w.Abort()
		return nil, err
	}
	w.off = headerSize
	return w, nil
}

// Raw appends p as a section, padding the file so every section starts
// 8-aligned, and returns its ref. Errors are sticky and reported by
// Finish.
func (w *Writer) Raw(p []byte) Ref {
	if w.err != nil || len(p) == 0 {
		return Ref{}
	}
	if pad := (8 - w.off%8) % 8; pad != 0 {
		var zero [8]byte
		if _, err := w.f.Write(zero[:pad]); err != nil {
			w.err = err
			return Ref{}
		}
		w.off += pad
	}
	r := Ref{Off: w.off, Bytes: int64(len(p))}
	if _, err := w.f.Write(p); err != nil {
		w.err = err
		return Ref{}
	}
	w.off += int64(len(p))
	return r
}

// Put appends a slice of fixed-width values as a raw section.
func Put[T any](w *Writer, s []T) Ref {
	if len(s) == 0 {
		return Ref{}
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), int(unsafe.Sizeof(s[0]))*len(s))
	return w.Raw(b)
}

// Finish writes the metadata blob, seals the header, syncs and renames
// the file into place: a crash leaves the old file at the path or the
// whole new one.
func (w *Writer) Finish(meta []byte) error {
	if err := w.seal(meta); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return err
	}
	return w.rename()
}

// Seal is Finish without the sync, for a file nothing reads after a
// crash: a live trace's spill segment, which the next start sweeps.
func (w *Writer) Seal(meta []byte) error {
	if err := w.seal(meta); err != nil {
		return err
	}
	return w.rename()
}

// seal writes the metadata blob and the header.
func (w *Writer) seal(meta []byte) error {
	if w.err != nil {
		err := w.err
		w.Abort()
		return err
	}
	mref := w.Raw(meta)
	if w.err != nil {
		err := w.err
		w.Abort()
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	le := binary.LittleEndian
	// Write the probe host-endian: dump the uint64's memory image.
	probe := uint64(endianProbe)
	copy(hdr[16:24], unsafe.Slice((*byte)(unsafe.Pointer(&probe)), 8))
	le.PutUint64(hdr[24:32], uint64(mref.Off))
	le.PutUint64(hdr[32:40], uint64(mref.Bytes))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		w.Abort()
		return err
	}
	return nil
}

// rename closes the sealed file and moves it into place.
func (w *Writer) rename() error {
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return nil
}

// Abort discards the partially written file.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.tmp)
		w.f = nil
	}
}

// ---- Reading ----

// Mapped is an open, read-only store file. Its sections are views into
// a shared memory mapping (or, on platforms without mmap, one heap
// copy of the file). The mapping is released when the Mapped is
// garbage-collected, so slices returned by View keep the backing pages
// alive for as long as the Mapped itself is reachable; Close releases
// the mapping immediately and must only be called when no views
// remain in use.
type Mapped struct {
	data   []byte
	meta   []byte
	mapped bool // data is an mmap (needs munmap) rather than a heap copy
	closed bool
}

// ErrNotStore reports that a file is not a columnar store file.
var ErrNotStore = errors.New("store: not a columnar store file")

// Open maps the store file at path.
func Open(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, ErrNotStore
	}
	data, mapped, err := mmapFile(f, size)
	if err != nil {
		// Fall back to one heap read when the platform or filesystem
		// cannot map the file.
		data = make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, err
		}
		mapped = false
	}
	m := &Mapped{data: data, mapped: mapped}
	if err := m.parseHeader(); err != nil {
		m.Close()
		return nil, err
	}
	// Reclaim the mapping when the last reference (including every
	// slice view, which keeps the Mapped alive through its creator)
	// is dropped without an explicit Close.
	if mapped {
		runtime.SetFinalizer(m, func(m *Mapped) { m.Close() })
	}
	return m, nil
}

func (m *Mapped) parseHeader() error {
	if string(m.data[:8]) != Magic {
		return ErrNotStore
	}
	le := binary.LittleEndian
	if v := le.Uint32(m.data[8:12]); v != version {
		return fmt.Errorf("store: unsupported version %d (want %d)", v, version)
	}
	probe := *(*uint64)(unsafe.Pointer(&m.data[16]))
	if probe != endianProbe {
		return fmt.Errorf("store: byte order mismatch (file written on an incompatible machine)")
	}
	off := int64(le.Uint64(m.data[24:32]))
	n := int64(le.Uint64(m.data[32:40]))
	if !m.holds(off, n) {
		return fmt.Errorf("store: corrupt header (meta %d+%d beyond %d bytes)", off, n, len(m.data))
	}
	m.meta = m.data[off : off+n]
	return nil
}

// holds reports whether [off, off+n) is a section inside the file. It
// compares n against the room left after off rather than forming
// off+n, which overflows for hostile values.
func (m *Mapped) holds(off, n int64) bool {
	size := int64(len(m.data))
	return n >= 0 && off >= headerSize && off <= size && n <= size-off
}

// Meta returns the metadata blob written by Finish.
func (m *Mapped) Meta() []byte { return m.meta }

// Size returns the file size in bytes.
func (m *Mapped) Size() int64 { return int64(len(m.data)) }

// View returns the section r as a slice of T aliasing the mapping —
// zero copies, zero decoding. It validates bounds, alignment and
// element-size divisibility so a corrupt ref fails rather than
// misparses.
func View[T any](m *Mapped, r Ref) ([]T, error) {
	if r.Zero() {
		return nil, nil
	}
	var t T
	sz := int64(unsafe.Sizeof(t))
	if !m.holds(r.Off, r.Bytes) || r.Bytes%sz != 0 {
		return nil, fmt.Errorf("store: corrupt section ref %+v (file %d bytes, elem %d)", r, len(m.data), sz)
	}
	p := unsafe.Pointer(&m.data[r.Off])
	if uintptr(p)%unsafe.Alignof(t) != 0 {
		return nil, fmt.Errorf("store: misaligned section ref %+v", r)
	}
	return unsafe.Slice((*T)(p), r.Bytes/sz), nil
}

// Close releases the mapping. After Close every slice previously
// returned by View is invalid; the caller owns that contract (the
// trace layer ties Close to Trace.Close). Close is idempotent.
func (m *Mapped) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	runtime.SetFinalizer(m, nil)
	m.meta = nil
	if m.mapped {
		data := m.data
		m.data = nil
		return munmapBytes(data)
	}
	m.data = nil
	return nil
}

// ---- Metadata codec ----

// Enc builds a varint-encoded metadata blob.
type Enc struct{ buf []byte }

// Bytes returns the encoded blob.
func (e *Enc) Bytes() []byte { return e.buf }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Enc) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a non-negative int.
func (e *Enc) Int(v int) { e.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ref appends a section ref.
func (e *Enc) Ref(r Ref) {
	e.I64(r.Off)
	e.I64(r.Bytes)
}

// Dec decodes a blob written by Enc. Errors are sticky: after the
// first malformed field every further read returns zero values and
// Err reports the failure.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over blob.
func NewDec(blob []byte) *Dec { return &Dec{buf: blob} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated or corrupt metadata at offset %d", d.off)
	}
}

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int reads a non-negative int.
func (d *Dec) Int() int {
	v := d.U64()
	if v > uint64(int(^uint(0)>>1)) {
		d.fail()
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Int()
	if d.err != nil {
		return ""
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Ref reads a section ref.
func (d *Dec) Ref() Ref {
	off := d.I64()
	n := d.I64()
	return Ref{Off: off, Bytes: n}
}
