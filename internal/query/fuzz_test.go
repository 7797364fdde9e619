package query

import (
	"errors"
	"net/url"
	"sort"
	"strings"
	"testing"
)

// reversedKeys re-encodes v with its keys in descending order — the
// reverse of Values.Encode — keeping each key's values in order (the
// first value of a duplicated key is the one that counts).
func reversedKeys(v url.Values) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	var parts []string
	for _, k := range keys {
		for _, val := range v[k] {
			parts = append(parts, url.QueryEscape(k)+"="+url.QueryEscape(val))
		}
	}
	return strings.Join(parts, "&")
}

// FuzzFromValues feeds arbitrary raw query strings through the shared
// parameter parser. It must never panic; a rejection is a
// BadParamError; and a query that parses has one canonical form:
// deterministic, equal for its Clone, independent of the order the
// parameters arrived in and of keys the parser does not read — the
// removed noindex switch among them, so a legacy URL shares the plain
// request's cache entry.
func FuzzFromValues(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzFromValues (identical to
	// internal/ui's FuzzEndpoints corpus, which internal/ui's
	// TestFuzzCorporaIdentical checks): every parameter the parser and
	// the HTTP endpoints read, well-formed and not, plus the shapes that
	// have bitten before — duplicated keys, escapes in type and node
	// lists, inverted ranges, extreme integers, keys nobody reads.
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // what the handlers see: the pairs that did parse
		q, err := FromValues(v)
		if err != nil {
			var bad *BadParamError
			if !errors.As(err, &bad) || bad.Param == "" {
				t.Fatalf("FromValues(%q) rejected with %#v, want a BadParamError naming the parameter", raw, err)
			}
			return
		}
		want := q.Canonical()
		if got := q.Canonical(); got != want {
			t.Fatalf("Canonical not deterministic: %q then %q", want, got)
		}
		if got := q.Clone().Canonical(); got != want {
			t.Fatalf("Clone canonical %q, want %q", got, want)
		}

		rv, err := url.ParseQuery(reversedKeys(v))
		if err != nil {
			t.Fatalf("re-encoded query does not parse: %v", err)
		}
		rq, err := FromValues(rv)
		if err != nil {
			t.Fatalf("reordered parameters rejected: %v", err)
		}
		if got := rq.Canonical(); got != want {
			t.Fatalf("reordered parameters canonicalize to %q, want %q", got, want)
		}

		for _, k := range []string{"noindex", "no-such-parameter"} {
			if !v.Has(k) {
				v.Set(k, "1")
			}
		}
		uq, err := FromValues(v)
		if err != nil {
			t.Fatalf("unknown keys rejected: %v", err)
		}
		if got := uq.Canonical(); got != want {
			t.Fatalf("unknown keys change the canonical form: %q, want %q", got, want)
		}
	})
}
