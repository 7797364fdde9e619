package ui

import (
	"net/http/httptest"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
)

// FuzzEndpoints sends arbitrary raw query strings to every request/
// response endpoint of a viewer over a small static trace. Whatever
// the parameters say, the answer is a result or a client error: never
// a panic, never a 5xx, and every PNG decodes (hostile w, h, shades and
// cell reach the encoder's palette and bit-depth choices). The seed
// corpus (testdata/fuzz/FuzzEndpoints) is internal/query's
// FuzzFromValues corpus, file for file.
func FuzzEndpoints(f *testing.F) {
	srv := NewServer(query.NewStatic(atmtest.SeidelTrace(f, 3, 2, openstream.SchedNUMA)), "fuzz")
	paths := []string{"/render", "/matrix", "/plot", "/stats", "/task", "/graph.dot", "/anomalies", "/live"}
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range paths {
			req := httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			atmtest.CheckServed(t, path+"?"+raw, rec)
		}
	})
}
