// Package symbols resolves work-function addresses to names using
// nm(1)-format symbol listings, as Aftermath does to relate timeline
// elements to the application's source code (paper Section VI-C): the
// address of a task's work function is looked up in the binary's
// symbol table and displayed in the detailed text view.
package symbols

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/openstream/aftermath/internal/core"
)

// Symbol is one entry of a symbol table.
type Symbol struct {
	Addr uint64
	// Kind is the nm symbol type character (T/t for text symbols).
	Kind byte
	Name string
}

// Table is an address-sorted symbol table.
type Table struct {
	syms []Symbol
}

// ParseNM parses `nm`-format output: lines of the form
// "0000000000401000 T function_name". Undefined symbols (no address)
// are skipped. Symbols are returned sorted by address.
func ParseNM(r io.Reader) (*Table, error) {
	t := &Table{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) == 2 && fields[0] == "U" {
			continue // undefined symbol
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("symbols: line %d: malformed nm line %q", line, text)
		}
		addr, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("symbols: line %d: bad address %q: %v", line, fields[0], err)
		}
		t.syms = append(t.syms, Symbol{
			Addr: addr,
			Kind: fields[1][0],
			Name: strings.Join(fields[2:], " "),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(t.syms, func(i, j int) bool { return t.syms[i].Addr < t.syms[j].Addr })
	return t, nil
}

// Len returns the number of symbols.
func (t *Table) Len() int { return len(t.syms) }

// Lookup returns the symbol covering addr: the one with the greatest
// address not exceeding addr.
func (t *Table) Lookup(addr uint64) (Symbol, bool) {
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	return t.syms[i-1], true
}

// Resolve fills in missing task type names in a loaded trace from the
// symbol table, keyed by work-function address. It returns the number
// of names resolved.
func Resolve(tr *core.Trace, t *Table) int {
	n := 0
	for i := range tr.Types {
		tt := &tr.Types[i]
		if tt.Name != "" {
			continue
		}
		if sym, ok := t.Lookup(tt.Addr); ok {
			tt.Name = sym.Name
			n++
		}
	}
	return n
}
