package symbols

import (
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

const nmSample = `
0000000000401000 T main
0000000000401100 T seidel_block
0000000000401200 t helper_static
U printf
0000000000601000 D data_sym
`

func TestParseNM(t *testing.T) {
	tab, err := ParseNM(strings.NewReader(nmSample))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 4 {
		t.Fatalf("symbols = %d, want 4", tab.Len())
	}
	s, ok := tab.Lookup(0x401100)
	if !ok || s.Name != "seidel_block" || s.Kind != 'T' {
		t.Errorf("Lookup(0x401100) = %+v, %v", s, ok)
	}
	// Addresses inside a function resolve to the function.
	s, ok = tab.Lookup(0x4011ff)
	if !ok || s.Name != "seidel_block" {
		t.Errorf("Lookup(mid) = %+v", s)
	}
	if _, ok := tab.Lookup(0x100); ok {
		t.Error("address below all symbols must miss")
	}
}

func TestParseNMErrors(t *testing.T) {
	if _, err := ParseNM(strings.NewReader("zz T name\n")); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := ParseNM(strings.NewReader("0000 T\n")); err == nil {
		t.Error("short line accepted")
	}
	tab, err := ParseNM(strings.NewReader(""))
	if err != nil || tab.Len() != 0 {
		t.Errorf("empty input: %v, %d", err, tab.Len())
	}
}

func TestResolve(t *testing.T) {
	tab, err := ParseNM(strings.NewReader(nmSample))
	if err != nil {
		t.Fatal(err)
	}
	tr := &core.Trace{
		Types: []trace.TaskType{
			{ID: 1, Addr: 0x401100, Name: ""},      // resolvable
			{ID: 2, Addr: 0x401000, Name: "known"}, // already named
			{ID: 3, Addr: 0x50, Name: ""},          // unresolvable
		},
	}
	n := Resolve(tr, tab)
	if n != 1 {
		t.Errorf("resolved = %d, want 1", n)
	}
	if tr.Types[0].Name != "seidel_block" {
		t.Errorf("type 1 name = %q", tr.Types[0].Name)
	}
	if tr.Types[1].Name != "known" {
		t.Error("existing name overwritten")
	}
	if tr.Types[2].Name != "" {
		t.Error("unresolvable type got a name")
	}
}
