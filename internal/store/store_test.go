package store

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type fixedRec struct {
	A int64
	B int32
	C uint8
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{1, -2, 3, 1 << 60}
	recs := []fixedRec{{A: 7, B: -8, C: 9}, {A: -1, B: 2, C: 3}}
	r1 := Put(w, ints)
	r2 := Put(w, recs)
	r3 := Put(w, []int32{}) // empty section
	var enc Enc
	enc.Str("hello")
	enc.I64(-42)
	enc.U64(99)
	enc.Ref(r1)
	enc.Ref(r2)
	enc.Ref(r3)
	if err := w.Finish(enc.Bytes()); err != nil {
		t.Fatal(err)
	}

	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	d := NewDec(m.Meta())
	if s := d.Str(); s != "hello" {
		t.Fatalf("Str = %q", s)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.U64(); v != 99 {
		t.Fatalf("U64 = %d", v)
	}
	g1, err := View[int64](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := View[fixedRec](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	g3, err := View[int32](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, ints) {
		t.Fatalf("ints = %v, want %v", g1, ints)
	}
	if !reflect.DeepEqual(g2, recs) {
		t.Fatalf("recs = %+v, want %+v", g2, recs)
	}
	if g3 != nil {
		t.Fatalf("empty section = %v, want nil", g3)
	}
}

func TestStoreRejectsCorruptInput(t *testing.T) {
	dir := t.TempDir()

	notStore := filepath.Join(dir, "plain.bin")
	if err := os.WriteFile(notStore, []byte("this is not a store file, just bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(notStore); err == nil {
		t.Fatal("Open accepted a non-store file")
	}

	short := filepath.Join(dir, "short.atms")
	if err := os.WriteFile(short, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("Open accepted a header-less file")
	}

	// A valid file truncated mid-section must fail to open (the meta
	// ref points past EOF), not misparse.
	path := filepath.Join(dir, "trunc.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	Put(w, make([]int64, 1024))
	var enc Enc
	enc.Str("meta")
	if err := w.Finish(enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a truncated file")
	}

	// Corrupt section refs fail View, not crash.
	good := filepath.Join(dir, "good.atms")
	w, err = Create(good)
	if err != nil {
		t.Fatal(err)
	}
	ref := Put(w, []int64{1, 2, 3})
	var e2 Enc
	e2.Ref(ref)
	if err := w.Finish(e2.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := View[int64](m, Ref{Off: 1 << 40, Bytes: 8}); err == nil {
		t.Fatal("View accepted an out-of-range ref")
	}
	if _, err := View[int64](m, Ref{Off: ref.Off, Bytes: ref.Bytes + 1}); err == nil {
		t.Fatal("View accepted a ref not divisible by the element size")
	}
}

func TestDecSticky(t *testing.T) {
	var enc Enc
	enc.U64(5)
	blob := enc.Bytes()
	d := NewDec(blob)
	if v := d.U64(); v != 5 {
		t.Fatalf("U64 = %d", v)
	}
	// Reading past the end sets a sticky error and returns zeros.
	if s := d.Str(); s != "" {
		t.Fatalf("Str past end = %q", s)
	}
	if d.Err() == nil {
		t.Fatal("no error after reading past the end")
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}
}

func TestWriterAbortLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aborted.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	Put(w, []int64{1})
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target exists after Abort (err=%v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("temp files left after Abort: %v", ents)
	}
}

// openSmall writes and opens a store file holding one int64 section.
func openSmall(t testing.TB) (*Mapped, Ref) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "small.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := Put(w, []int64{1, 2, 3, 4})
	if err := w.Finish([]byte("meta")); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, ref
}

// TestStoreViewRefBounds: refs whose Off+Bytes overflows, or whose
// Bytes is negative, are corrupt-ref errors — they used to pass the
// bounds check and panic inside View.
func TestStoreViewRefBounds(t *testing.T) {
	m, ref := openSmall(t)
	if got, err := View[int64](m, ref); err != nil || len(got) != 4 || got[3] != 4 {
		t.Fatalf("valid ref: %v, %v", got, err)
	}
	for _, r := range []Ref{
		{Off: 48, Bytes: -16},
		{Off: 1 << 62, Bytes: 1 << 62},
		{Off: math.MaxInt64, Bytes: 8},
		{Off: ref.Off, Bytes: math.MaxInt64 - 7},
		{Off: 40, Bytes: 8},
		{Off: m.Size(), Bytes: 8},
		{Off: m.Size() - 8, Bytes: 16},
		{Off: -8, Bytes: 8},
	} {
		if got, err := View[int64](m, r); err == nil {
			t.Errorf("View(%+v) accepted a corrupt ref (%d elems)", r, len(got))
		}
	}

	// The header's meta ref takes the same check.
	path := filepath.Join(t.TempDir(), "hdr.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish([]byte("meta")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[24:32], 1<<62)
	binary.LittleEndian.PutUint64(data[32:40], 1<<62)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted an overflowing meta ref")
	}
}

// FuzzViewRef: whatever the ref, View returns an error or a slice
// lying entirely inside the file.
func FuzzViewRef(f *testing.F) {
	m, ref := openSmall(f)
	f.Add(ref.Off, ref.Bytes)
	f.Add(int64(48), int64(-16))
	f.Add(int64(1)<<62, int64(1)<<62)
	f.Add(m.Size(), int64(8))
	f.Fuzz(func(t *testing.T, off, n int64) {
		got, err := View[byte](m, Ref{Off: off, Bytes: n})
		if err != nil || len(got) == 0 {
			return
		}
		if off < headerSize || int64(len(got)) != n || off+n > m.Size() {
			t.Fatalf("View(%d, %d) returned %d bytes of a %d-byte file", off, n, len(got), m.Size())
		}
		_ = got[0] + got[len(got)-1] // in-bounds views are readable end to end
	})
}

// TestSealEqualsFinish: a file sealed without a sync is the file
// Finish writes, byte for byte, in place under its name with no
// temporary left beside it.
func TestSealEqualsFinish(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, done func(*Writer, []byte) error) []byte {
		w, err := Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		Put(w, []int64{1, 2, 3})
		w.Raw([]byte("abc"))
		if err := done(w, []byte("meta")); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	finished, sealed := write("a.atms", (*Writer).Finish), write("b.atms", (*Writer).Seal)
	if !reflect.DeepEqual(finished, sealed) {
		t.Error("Seal wrote another file than Finish")
	}
	if m, err := Open(filepath.Join(dir, "b.atms")); err != nil || string(m.Meta()) != "meta" {
		t.Fatalf("sealed file: %v", err)
	} else {
		m.Close()
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("%d files left in the directory, want the two written", len(ents))
	}
}
