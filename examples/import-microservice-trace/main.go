// Import a microservice span trace: generate a deterministic
// stdouttrace-style span file for a three-service checkout flow,
// import it as an Aftermath trace, print the inferred
// service/operation report and rank its anomalies — the whole foreign
// trace path through the public API.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	aftermath "github.com/openstream/aftermath"
)

// The generated topology: frontend calls backend.charge and
// backend.inventory in parallel; charge chains db.query then
// db.commit sequentially. One request carries a planted latency
// outlier so the anomaly scan has something to find.

const base = "2026-01-01T00:00:00"

func ts(offsetNs int64) string {
	t, _ := time.Parse(time.RFC3339, base+"Z")
	return t.Add(time.Duration(offsetNs)).UTC().Format(time.RFC3339Nano)
}

func span(traceID, id, parent uint64, service, op string, start, end int64, errStatus bool) string {
	status := ""
	if errStatus {
		status = `"Status":{"Code":"Error"},`
	}
	return fmt.Sprintf(`{"Name":%q,"SpanContext":{"TraceID":"%032x","SpanID":"%016x"},`+
		`"Parent":{"SpanID":"%016x"},"StartTime":%q,"EndTime":%q,%s`+
		`"Resource":[{"Key":"service.name","Value":{"Type":"STRING","Value":%q}}]}`,
		op, traceID, id, parent, ts(start), ts(end), status, service) + "\n"
}

func generate() []byte {
	var out []byte
	ms := int64(time.Millisecond)
	for k := int64(0); k < 12; k++ {
		s := k * 10 * ms
		tid := uint64(k + 1)
		root := uint64(k<<8 | 1)
		charge, inv := root+1, root+2
		q1, commit, q2 := root+3, root+4, root+5

		qDur := 2 * ms
		if k == 9 { // the planted outlier: one slow db query
			qDur = 40 * ms
		}
		out = append(out, span(tid, q1, charge, "db", "query", s+500_000, s+500_000+qDur, false)...)
		out = append(out, span(tid, commit, charge, "db", "commit", s+500_000+qDur, s+1*ms+qDur, false)...)
		out = append(out, span(tid, q2, inv, "db", "query", s+600_000, s+600_000+qDur, k == 5)...)
		out = append(out, span(tid, charge, root, "backend", "charge", s+200_000, s+2*ms+qDur, false)...)
		out = append(out, span(tid, inv, root, "backend", "inventory", s+250_000, s+2*ms+qDur, false)...)
		out = append(out, span(tid, root, 0, "frontend", "POST /checkout", s, s+3*ms+qDur, false)...)
	}
	return out
}

func main() {
	// 1. Write the span file — any OpenTelemetry stdouttrace or
	// OTLP-JSON export works the same way.
	dir, err := os.MkdirTemp("", "aftermath-import")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "spans.jsonl")
	if err := os.WriteFile(path, generate(), 0o644); err != nil {
		log.Fatal(err)
	}

	// 2. Import it. aftermath.Open(path) would work identically —
	// formats are detected from content — but ImportSpans also returns
	// the inference report.
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	tr, report, err := aftermath.ImportSpans(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// 3. The inferred structure: services became NUMA nodes, their
	// concurrency worker lanes, operations task types with call styles
	// voted from child start times.
	fmt.Printf("imported %d spans across %d requests -> %d CPUs, %d task types\n",
		report.Spans, report.Traces, tr.NumCPUs(), len(tr.Types))
	for _, svc := range report.Services {
		fmt.Printf("service %-9s node %d, %d workers\n", svc.Name, svc.Node, svc.Workers)
		for _, op := range svc.Ops {
			style := op.Style
			if style == "" {
				style = "leaf"
			}
			fmt.Printf("  %-16s %3d calls  mean %6.2fms  %s", op.Name, op.Count,
				float64(op.MeanNs)/1e6, style)
			if len(op.Calls) > 0 {
				fmt.Printf("  -> %v", op.Calls)
			}
			if op.Errors > 0 {
				fmt.Printf("  (%d errors)", op.Errors)
			}
			fmt.Println()
		}
	}

	// 4. The full analysis stack works on the imported trace; the
	// planted outlier tops the anomaly ranking.
	found, _, err := aftermath.QueryAnomalies(aftermath.Static(tr), aftermath.NewQuery())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d anomalies; top findings:\n", len(found))
	for i, a := range found {
		if i == 3 {
			break
		}
		fmt.Printf("  %-18s score %5.0f  %s\n", a.Kind, a.Score, a.Explanation)
	}

	fmt.Printf("\nserve it interactively:\n  go run ./cmd/aftermath -serve %s -http :8080\n", dir)
}
