package ui

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
)

// servers serves a native trace the four ways a viewer serves one:
// batch-loaded, fed live in several publishes, fed live spilling every
// publish, and saved as a store snapshot and mapped back.
func servers(t testing.TB, data []byte) map[string]*Server {
	batch, err := core.FromReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.atms")
	if err := core.SaveStore(batch, path); err != nil {
		t.Fatal(err)
	}
	mapped, err := core.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	out := map[string]*Server{}
	for way, tr := range map[string]*core.Trace{
		"batch": batch, "live": atmtest.LiveTrace(t, data, 4, false),
		"spilled": atmtest.LiveTrace(t, data, 4, true), "atms": mapped,
	} {
		srv := NewServer(query.NewStatic(tr), way)
		t.Cleanup(func() { srv.Close() })
		out[way] = srv
	}
	return out
}

// TestServedEqualsOracle: what the viewer serves for /render, /stats,
// /matrix and /plot over oracle.Gen's adversarial traces is the
// oracle's answer — pixel for pixel, byte for byte — whether the trace
// was batch-loaded, fed live, fed live spilling every publish or mapped
// back from a store snapshot. The malformed traces, which the oracle
// does not judge, are held to the first check alone: no 5xx, and every
// PNG decodes.
func TestServedEqualsOracle(t *testing.T) {
	judged := 0
	for seed := int64(1); seed <= 40; seed++ {
		data, targets := oracle.Gen(seed)
		o, err := oracle.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		srvs := servers(t, data)
		for i, target := range targets {
			for way, srv := range srvs {
				t.Run(fmt.Sprintf("seed=%d/%d/%s", seed, i, way), func(t *testing.T) {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					atmtest.CheckServed(t, target, rec, o)
					if rec.Code == 200 && o.Exact() {
						judged++
					}
				})
			}
		}
	}
	if judged < 2000 {
		t.Errorf("the oracle judged %d answers; the equalities above are close to vacuous", judged)
	}
}

// FuzzServedEqualsOracle: the fuzzer picks oracle.Gen's seed, the verb
// and the raw query; what the four ways of serving the generated trace
// answer is held to CheckServed with the oracle.
func FuzzServedEqualsOracle(f *testing.F) {
	for seed, raw := range []string{"", "mode=numa-heat&w=100&t0=0&t1=0", "counter=events&rate=0&level=2", "kind=avgdur&types=alpha&n=10", "t1=9223372036854775807&cell=4"} {
		f.Add(int64(seed), uint8(seed), raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, verb uint8, raw string) {
		data, _ := oracle.Gen(seed)
		o, err := oracle.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		p := []string{"/render", "/stats", "/matrix", "/plot"}[verb%4]
		for _, srv := range servers(t, data) {
			req := httptest.NewRequest("GET", p, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			atmtest.CheckServed(t, p+"?"+raw, rec, o)
		}
	})
}
