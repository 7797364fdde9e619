// Live monitoring: analyzing a trace that is still being written.
//
// The paper's workflow is post-mortem — collect a trace, then load and
// explore it. This example walks the streaming counterpart: a producer
// is still appending records to the trace file while a follower tails
// it, publishing epoch-versioned snapshots whose timelines, metrics
// and anomaly rankings update as the run progresses. Every snapshot is
// byte-identical to a cold load of the file's current prefix, so
// nothing about the analysis changes — only when it can start.
//
// The monitoring client here is push-based: instead of polling /live
// for an epoch change, it subscribes once to the viewer's /events
// stream (Server-Sent Events) and is told the moment a publish
// happens. Subscriptions coalesce — a slow client's next event always
// describes the latest epoch, never a backlog.
//
// The same loop backs the CLI:
//
//	aftermath -follow -http :8080 trace.atm
//
// Run with: go run ./examples/live-monitoring
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	aftermath "github.com/openstream/aftermath"
)

// epochEvent is the subset of the /events "epoch" payload (the /live
// status body) this client cares about.
type epochEvent struct {
	Epoch uint64 `json:"epoch"`
	Tasks int    `json:"tasks"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Error string `json:"error"`
}

func main() {
	// 1. Simulate a seidel run into memory: this stands in for any
	//    long-running task-parallel job whose runtime writes a trace as
	//    it executes. (Streaming requires an uncompressed trace — a
	//    gzip stream cannot be decoded while still being written.)
	prog, err := aftermath.BuildSeidel(aftermath.ScaledSeidelConfig(6, 4))
	if err != nil {
		log.Fatal(err)
	}
	cfg := aftermath.DefaultSimConfig(aftermath.SmallMachine(4, 4))
	var buf traceBuffer
	if _, err := aftermath.Simulate(prog, cfg, &buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated trace: %d bytes\n", len(buf.data))

	// 2. The producer: write the trace to disk in bursts, the way a
	//    tracing runtime flushes its buffers while the job runs. The
	//    first burst is written before the follower opens the file, so
	//    its opening feed already sees the stream header.
	dir, err := os.MkdirTemp("", "aftermath-live")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.atm")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	const bursts = 12
	chunk := len(buf.data)/bursts + 1
	if _, err := f.Write(buf.data[:chunk]); err != nil {
		log.Fatal(err)
	}
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		defer f.Close()
		for off := chunk; off < len(buf.data); off += chunk {
			end := off + chunk
			if end > len(buf.data) {
				end = len(buf.data)
			}
			time.Sleep(40 * time.Millisecond) // the job is still computing
			if _, err := f.Write(buf.data[off:end]); err != nil {
				log.Fatal(err)
			}
		}
	}()

	// 3. The follower and its live viewer: FollowTrace tails the
	//    growing file on a poll loop, publishing an epoch whenever new
	//    records arrive; the viewer serves the full analysis UI over
	//    the live trace, and its /events endpoint pushes every epoch
	//    advance to subscribed clients.
	lv := aftermath.NewLiveTrace()
	follower, err := aftermath.FollowTrace(lv, path, 25*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer follower.Close()
	viewer := aftermath.NewViewer(lv, "run.atm")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, viewer)
	base := "http://" + ln.Addr().String()

	// 4. The monitoring client: one GET of /events, then read pushed
	//    epoch frames off the stream — no polling loop, no /live
	//    round trips. This is exactly what the viewer's index page
	//    does in the browser with an EventSource.
	resp, err := http.Get(base + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		log.Fatalf("/events content type %q, want text/event-stream", ct)
	}
	events := make(chan epochEvent, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var event, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if event == "epoch" && data != "" {
					var ev epochEvent
					if json.Unmarshal([]byte(data), &ev) == nil {
						events <- ev
					}
				}
				event, data = "", ""
			}
		}
	}()

	// Consume pushed epochs until the producer has finished and the
	// follower has gone quiet (a few poll intervals with no event —
	// the stream itself carries no "end of trace" marker, because the
	// viewer cannot know the job is done).
	done := false
	var last epochEvent
	for !done {
		quiet := time.After(250 * time.Millisecond)
		select {
		case ev, ok := <-events:
			if !ok {
				log.Fatal("event stream closed early")
			}
			if ev.Error != "" {
				log.Fatalf("ingest error pushed: %s", ev.Error)
			}
			last = ev
			found, _, err := aftermath.QueryAnomalies(lv, aftermath.NewQuery())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("pushed epoch %2d: %4d tasks, span %9d cycles, %2d anomalies\n",
				ev.Epoch, ev.Tasks, ev.End-ev.Start, len(found))
		case <-quiet:
			select {
			case <-producerDone:
				done = true
			default:
			}
		}
	}

	// 5. The run is over; the live trace is now simply a loaded trace.
	//    Its final snapshot matches a cold aftermath.Open of the file.
	tr, epoch := lv.Snapshot()
	if epoch != last.Epoch {
		log.Fatalf("push lagged: last pushed epoch %d, current %d", last.Epoch, epoch)
	}
	cold, err := aftermath.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal epoch %d: %d tasks (cold load agrees: %v)\n",
		epoch, len(tr.Tasks), len(tr.Tasks) == len(cold.Tasks) && tr.Span == cold.Span)
	fmt.Println("\ntop final anomalies:")
	found, _, err := aftermath.QueryAnomalies(aftermath.Static(tr), aftermath.NewQuery().Limit(5))
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range found {
		fmt.Println("  " + a.String())
	}
	fmt.Println("\nserve this live with: aftermath -follow -http :8080 " + path)
}

// traceBuffer collects the simulated trace in memory.
type traceBuffer struct{ data []byte }

func (t *traceBuffer) Write(p []byte) (int, error) {
	t.data = append(t.data, p...)
	return len(p), nil
}
