package ui

import (
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

// gone is the context of a client that has already hung up: /events
// writes its initial frames and returns instead of streaming forever.
// Nothing else reads it but a singleflight follower, and a fuzzer runs
// one request at a time.
var gone = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// seidelWithOracle loads a small simulated trace and reads its bytes
// into the oracle.
func seidelWithOracle(tb testing.TB) (*core.Trace, *oracle.Trace) {
	data := atmtest.SeidelBytes(tb, 3, 2, openstream.SchedNUMA)
	tr, err := core.FromReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	o, err := oracle.Read(data)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, o
}

// FuzzEndpoints sends arbitrary raw query strings to every path of the
// endpoint table a viewer over a small static trace answers. Whatever
// the parameters say, the answer is a result or a client error: never
// a panic, never a 5xx, every PNG decodes (hostile w, h, shades and
// cell reach the encoder's palette and bit-depth choices), and every
// 200 of /render, /stats, /matrix and /plot is the oracle's answer. The seed
// corpus (testdata/fuzz/FuzzEndpoints) is internal/query's
// FuzzFromValues corpus, file for file (TestFuzzCorporaIdentical).
func FuzzEndpoints(f *testing.F) {
	tr, o := seidelWithOracle(f)
	srv := NewServer(query.NewStatic(tr), "fuzz")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		for _, ep := range endpoints {
			if ep.at&onServer == 0 {
				continue
			}
			req := httptest.NewRequest("GET", ep.path, nil).WithContext(gone)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			atmtest.CheckServed(t, ep.path+"?"+raw, rec, o)
		}
	})
}

// TestFuzzCorporaIdentical: the URL shapes seeded into the parser's
// fuzzer and into the endpoints' are one corpus, so a shape added for
// one reaches both.
func TestFuzzCorporaIdentical(t *testing.T) {
	read := func(dir string) map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(ents))
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	ui, parser := read("testdata/fuzz/FuzzEndpoints"), read("../query/testdata/fuzz/FuzzFromValues")
	if len(parser) == 0 {
		t.Fatal("empty corpus")
	}
	for name, body := range parser {
		if got, ok := ui[name]; !ok {
			t.Errorf("%s: in FuzzFromValues' corpus only", name)
		} else if got != body {
			t.Errorf("%s: FuzzEndpoints seeds %q, FuzzFromValues %q", name, got, body)
		}
	}
	for name := range ui {
		if _, ok := parser[name]; !ok {
			t.Errorf("%s: in FuzzEndpoints' corpus only", name)
		}
	}
}

// FuzzHubRoutes sends arbitrary request paths to a hub of two traces,
// one batch and one live: trace names escaped or not, dot segments,
// doubled and encoded slashes, a mount without its trailing slash,
// unknown names and verbs. Every answer is a result or a client error,
// a 200 of a verb the oracle answers under the batch trace's mount is
// the oracle's, and a redirect never leads out of a registered trace's
// /t/<name>/.
func FuzzHubRoutes(f *testing.F) {
	lv := core.NewLive()
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(liveTraceBytes(f)))); err != nil {
		f.Fatal(err)
	}
	h := NewHub()
	batch, o := seidelWithOracle(f)
	if err := h.Add("batch", query.NewStatic(batch)); err != nil {
		f.Fatal(err)
	}
	if err := h.Add("run 1", lv); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"/", "/traces", "/events?traces=batch", "//traces", "/t/",
		"/t/batch", "/t/batch?mode=heatmap", "/t/run%201", "/t/run%201/live",
		"/t/batch/", "/t/batch/stats", "/t/batch//stats", "/t/batch/./stats",
		"/t/batch/../traces", "/t/batch/%2E%2E/render", "/t/batch%2Fstats",
		"/t/batch/render%2F", "/t/../t/batch/", "/t/nope/render", "/t/batch/bogus",
		"/t/batch/events", "//t/batch/stats", "/t/batch/render/?w=100&h=50",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		u, err := url.ParseRequestURI(raw)
		if err != nil {
			return
		}
		req := httptest.NewRequest("GET", "/", nil).WithContext(gone)
		req.URL = u
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		target, j := raw, atmtest.Judge(nil)
		if verb, ok := strings.CutPrefix(u.Path, "/t/batch/"); ok {
			target, j = "/"+verb+"?"+u.RawQuery, o
		}
		atmtest.CheckServed(t, target, rec, j)
		if rec.Code < 300 || rec.Code >= 400 {
			return
		}
		loc := rec.Header().Get("Location")
		to, err := url.Parse(loc)
		if err != nil || to.Host != "" {
			t.Fatalf("GET %s: redirect to %q", raw, loc)
		}
		name, _, mounted := strings.Cut(strings.TrimPrefix(to.Path, "/t/"), "/")
		if _, ok := h.Server(name); !ok || !mounted || !strings.HasPrefix(to.Path, "/t/") {
			t.Fatalf("GET %s: redirect to %q leaves every /t/<name>/", raw, loc)
		}
	})
}
