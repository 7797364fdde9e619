package atmbench

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/ingest/otlp"
)

func digest(t *testing.T, gen func(*bytes.Buffer) error) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gen(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("generator wrote nothing")
	}
	return sha256.Sum256(buf.Bytes())
}

// TestGeneratorsSeeded: the same seed yields the same bytes, another
// seed other bytes — for both generators.
func TestGeneratorsSeeded(t *testing.T) {
	sz := TinySizes()
	gens := map[string]func(seed int64) func(*bytes.Buffer) error{
		"native": func(seed int64) func(*bytes.Buffer) error {
			return func(b *bytes.Buffer) error { _, err := GenNative(b, sz.Native, seed); return err }
		},
		"spans": func(seed int64) func(*bytes.Buffer) error {
			return func(b *bytes.Buffer) error { _, err := GenSpans(b, sz.Spans, seed); return err }
		},
	}
	for name, gen := range gens {
		a, again, other := digest(t, gen(7)), digest(t, gen(7)), digest(t, gen(8))
		if a != again {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

// TestSpansRoundTrip: the importer infers from the generated stream the
// topology it was generated from — services, per-operation counts,
// error totals and call styles.
func TestSpansRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	info, err := GenSpans(&buf, SpansSpec{Spans: 4000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Spans < 4000 || info.Requests*len(spanTopology) != info.Spans {
		t.Fatalf("generated %d spans in %d requests of %d operations", info.Spans, info.Requests, len(spanTopology))
	}
	if info.Errors == 0 || info.Outliers == 0 {
		t.Errorf("planted %d errors and %d outliers, want some of each", info.Errors, info.Outliers)
	}
	tr, rep, err := ingest.ImportSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != info.Spans || rep.Traces != info.Requests || rep.Dropped != 0 || len(tr.Tasks) != info.Spans {
		t.Errorf("imported %d spans, %d traces, %d dropped, %d tasks; generated %d spans in %d requests",
			rep.Spans, rep.Traces, rep.Dropped, len(tr.Tasks), info.Spans, info.Requests)
	}
	if len(rep.Services) != len(info.Services) || len(info.Services) < 4 {
		t.Fatalf("imported %d services, generated %d", len(rep.Services), len(info.Services))
	}
	ops, errs := 0, 0
	styles := make(map[string]otlp.CallStyle)
	for _, svc := range rep.Services {
		for _, op := range svc.Ops {
			ops++
			errs += op.Errors
			styles[op.TypeName] = op.Style
			if want := info.Ops[op.TypeName]; op.Count != want {
				t.Errorf("%s: imported %d spans, generated %d", op.TypeName, op.Count, want)
			}
		}
	}
	if ops != len(info.Ops) {
		t.Errorf("imported %d operations, generated %d", ops, len(info.Ops))
	}
	if errs != info.Errors {
		t.Errorf("imported %d error spans, generated %d", errs, info.Errors)
	}
	for name, want := range map[string]otlp.CallStyle{
		"gateway.GET /order": otlp.StyleParallel,
		"cart.checkout":      otlp.StyleSequential,
		"catalog.lookup":     otlp.StyleParallel,
	} {
		if styles[name] != want {
			t.Errorf("%s: inferred call style %q, generated %q", name, styles[name], want)
		}
	}
}
