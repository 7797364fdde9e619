// The push channel: /events streams epoch advances, sticky ingest
// errors and spill-state changes as Server-Sent Events, so live
// viewers repaint the moment a publish happens instead of polling
// /live. One handler serves both shapes: a single-trace Server streams
// its own source, and the Hub multiplexes any subset of its registered
// traces onto one connection (payloads tagged with the trace name).
//
// Event schema (all payloads JSON):
//
//	event: epoch   data: the /live status body (hub: + "trace" name)
//	event: error   data: {"trace"?, "error"}      — first sticky ingest error
//	event: spill   data: {"trace"?, ...spill...}  — spill/retention state changed
//	: hb                                          — comment heartbeat, keepalive
//
// Delivery is drop-to-latest: each connection reads its sources
// through core.Live.Watch, whose one-slot buffer coalesces epochs
// under a slow client, so the next event a lagging client receives
// always describes the latest published state — never a backlog.
package ui

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
)

// defaultHeartbeat keeps idle SSE connections alive through proxies
// and lets clients detect dead ones.
const defaultHeartbeat = 15 * time.Second

// sseTarget is one trace feeding an SSE connection. name is empty on
// a single-trace server and the registered trace name under the hub.
type sseTarget struct {
	name string
	srv  *Server
}

// sseState tracks what one connection already told the client about
// one target.
type sseState struct {
	lastEpoch uint64
	epochSent bool
	errSent   bool
}

// sseError is the payload of an "error" event.
type sseError struct {
	Trace string `json:"trace,omitempty"`
	Error string `json:"error"`
}

// sseSpill is the payload of a "spill" event.
type sseSpill struct {
	Trace string `json:"trace,omitempty"`
	*spillStatus
}

// writeSSE writes one event frame. An empty id omits the id line.
func writeSSE(w io.Writer, event, id string, payload interface{}) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// handleEvents streams this server's trace (see the package comment of
// this file for the schema). Static sources have no epochs to push —
// the stream carries the initial status and heartbeats only.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	serveEvents(w, r, []sseTarget{{srv: s}}, s.heartbeat)
}

// serveEvents runs one SSE connection over the given targets until the
// client disconnects.
func serveEvents(w http.ResponseWriter, r *http.Request, targets []sseTarget, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		errorf(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	if heartbeat <= 0 {
		heartbeat = defaultHeartbeat
	}
	ctx := r.Context()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	// One forwarder per live target pumps its coalescing Watch channel
	// into the connection's update queue. A slow client blocks the
	// forwarders, not the publishers: intermediate epochs pile up
	// nowhere — Watch's one-slot buffer merges them, so the forwarder's
	// next read is the latest state. The request context cancels the
	// subscriptions (closing their channels) when the handler returns.
	type tagged struct {
		i  int
		ev core.TraceEvent
	}
	updates := make(chan tagged, len(targets))
	for i, t := range targets {
		if ws, ok := t.srv.src.(query.WatchSource); ok {
			ch := ws.Watch(ctx)
			go func(i int, ch <-chan core.TraceEvent) {
				for ev := range ch {
					select {
					case updates <- tagged{i, ev}:
					case <-ctx.Done():
						return
					}
				}
			}(i, ch)
		}
	}

	// Initial frames: every target's current status, so a client knows
	// where it starts (and learns of errors/spills that predate the
	// connection) without a separate /live round trip.
	state := make([]sseState, len(targets))
	for i := range targets {
		if !emitStatus(w, targets[i], &state[i], true) {
			return
		}
	}
	fl.Flush()

	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case u := <-updates:
			if !emitStatus(w, targets[u.i], &state[u.i], u.ev.SpillChanged) {
				return
			}
			fl.Flush()
		case <-tick.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// emitStatus writes the frames a target's current status calls for —
// an epoch event when the epoch moved (or on the initial frame), an
// error event for a new sticky error, a spill event when asked — and
// reports whether the connection is still writable.
func emitStatus(w io.Writer, t sseTarget, cs *sseState, spill bool) bool {
	st := t.srv.liveStatus()
	if !cs.epochSent || st.Epoch != cs.lastEpoch {
		var id string
		if t.name == "" {
			// The epoch is the stream position on a single-trace
			// connection; hub streams interleave traces, so no id.
			id = strconv.FormatUint(st.Epoch, 10)
		}
		var payload interface{} = st
		if t.name != "" {
			payload = hubTrace{Name: t.name, liveResponse: st}
		}
		if writeSSE(w, "epoch", id, payload) != nil {
			return false
		}
		cs.lastEpoch, cs.epochSent = st.Epoch, true
	}
	if st.Error != "" && !cs.errSent {
		if writeSSE(w, "error", "", sseError{Trace: t.name, Error: st.Error}) != nil {
			return false
		}
		cs.errSent = true
	}
	if spill && st.Spill != nil {
		if writeSSE(w, "spill", "", sseSpill{Trace: t.name, spillStatus: st.Spill}) != nil {
			return false
		}
	}
	return true
}

// handleEvents streams several registered traces on one connection:
// /events?traces=a,b selects a subset, the default is every registered
// trace. Payloads carry the trace name (see hubTrace). A name listed
// more than once is streamed once, at its first position: every target
// holds a Watch subscription and a forwarder goroutine for the life of
// the connection, so the goroutines one request can pin are bounded by
// the registered traces, not by the length of its query string.
func (h *Hub) handleEvents(w http.ResponseWriter, r *http.Request) {
	names := h.Names()
	if sel := r.URL.Query().Get("traces"); sel != "" {
		names = strings.Split(sel, ",")
	}
	var targets []sseTarget
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		srv, ok := h.Server(name)
		if !ok {
			errorf(w, http.StatusNotFound, "no trace %q registered", name)
			return
		}
		targets = append(targets, sseTarget{name: name, srv: srv})
	}
	serveEvents(w, r, targets, h.heartbeat)
}
