// The push channel: /events streams epoch advances, sticky ingest
// errors and spill-state changes as Server-Sent Events, so live
// viewers repaint the moment a publish happens instead of polling
// /live. One entry of the endpoint table serves both shapes: a
// Server's /events streams its own source, and the Hub's multiplexes
// any subset of its registered traces onto one connection (payloads
// tagged with the trace name).
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
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
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

// writeEvents streams the server's own trace or, at the hub's root, the
// traces=a,b selection (default: every registered trace). A name listed
// twice is streamed once: every target pins a Watch subscription and a
// forwarder goroutine for the life of the connection, so one request
// pins no more than the registered traces, whatever its query string.
// A static source's stream carries its initial status and heartbeats.
func writeEvents(w http.ResponseWriter, rq request) error {
	if rq.hub == nil {
		return serveEvents(w, rq.r, []sseTarget{{srv: rq.srv}}, rq.srv.heartbeat)
	}
	names := rq.hub.Names()
	if sel := rq.p.Str("traces", ""); sel != "" {
		names = strings.Split(sel, ",")
	}
	var targets []sseTarget
	for _, name := range names {
		srv, ok := rq.hub.Server(name)
		if !ok {
			return notFoundError{fmt.Errorf("no trace %q registered", name)}
		}
		if !slices.ContainsFunc(targets, func(t sseTarget) bool { return t.srv == srv }) {
			targets = append(targets, sseTarget{name: name, srv: srv})
		}
	}
	return serveEvents(w, rq.r, targets, rq.hub.heartbeat)
}

// serveEvents runs one SSE connection over the given targets until the
// client disconnects. It flushes through http.ResponseController, so a
// wrapping writer that only offers Unwrap streams too.
func serveEvents(w http.ResponseWriter, r *http.Request, targets []sseTarget, heartbeat time.Duration) error {
	ctx := r.Context()
	w.Header().Set("Cache-Control", "no-store")
	// Commit the 200 before any frame, while a writer that cannot
	// stream can still be answered with a 500.
	rc := http.NewResponseController(w)
	if err := rc.Flush(); errors.Is(err, http.ErrNotSupported) {
		return serverError{errors.New("streaming unsupported by this connection")}
	}

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
		if ws, ok := t.srv.src.(query.LiveSource); ok {
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
			return nil
		}
	}
	rc.Flush()

	tick := time.NewTicker(cmp.Or(heartbeat, defaultHeartbeat))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case u := <-updates:
			if !emitStatus(w, targets[u.i], &state[u.i], u.ev.SpillChanged) {
				return nil
			}
			rc.Flush()
		case <-tick.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return nil
			}
			rc.Flush()
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
		// The epoch is the stream position on a single-trace
		// connection; hub streams interleave traces, so no id.
		var id string
		var payload interface{} = st
		if t.name == "" {
			id = strconv.FormatUint(st.Epoch, 10)
		} else {
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
