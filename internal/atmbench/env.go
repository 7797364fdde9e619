package atmbench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is the loopback rig every workload drives: one real HTTP server
// on 127.0.0.1 whose handler can be swapped (a cold open mounts a
// fresh hub per cycle), one keep-alive client connection for requests
// and a second, separate connection for the SSE stream of the live
// workloads. Load comes from the one benchmark goroutine plus, while
// a live session runs, the SSE reader: never more than nproc=2.
type env struct {
	srv     *http.Server
	served  chan struct{}
	base    string
	handler atomic.Pointer[http.Handler]
	client  *http.Client
	sse     *http.Client
	body    bytes.Buffer
	// requests counts completed GETs; the workloads derive req_per_s
	// from it.
	requests int
	// ref is the speed reference every timing is read against.
	ref *speedRef
}

// sseWait bounds how long a live epoch waits for its pushed frame
// before the operation is declared failed.
const sseWait = 15 * time.Second

func newEnv() (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	e := &env{served: make(chan struct{}), base: "http://" + ln.Addr().String(), ref: newSpeedRef()}
	e.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := e.handler.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "no hub mounted", http.StatusServiceUnavailable)
	})}
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // always ErrServerClosed: close() is the only way out
	}()
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	e.client, e.sse = one(), one()
	return e, nil
}

// mount routes requests to h; nil unmounts.
func (e *env) mount(h http.Handler) {
	if h == nil {
		e.handler.Store(nil)
		return
	}
	e.handler.Store(&h)
}

// close stops the server and both client connections and waits for the
// accept loop to end.
func (e *env) close() {
	e.client.CloseIdleConnections()
	e.sse.CloseIdleConnections()
	_ = e.srv.Close() // nothing to flush: every response was fully read
	<-e.served
}

// reply is one fully read response. Body aliases the env's buffer and
// is valid until the next get.
type reply struct {
	Status int
	XCache string
	Body   []byte
	Dur    time.Duration
}

// get issues one GET and reads the body to its last byte; Dur is the
// wall clock from request sent to then.
func (e *env) get(path string) (reply, error) {
	start := time.Now()
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return reply{}, err
	}
	e.body.Reset()
	_, err = e.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("GET %s: read body: %w", path, err)
	}
	e.requests++
	return reply{
		Status: resp.StatusCode,
		XCache: resp.Header.Get("X-Cache"),
		Body:   e.body.Bytes(),
		Dur:    time.Since(start),
	}, nil
}

// frame is one parsed SSE epoch event.
type frame struct {
	Epoch uint64
	At    time.Time
}

// stream is one open SSE subscription.
type stream struct {
	frames chan frame
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

// subscribe opens the SSE stream at path and parses its epoch frames
// on a reader goroutine until close.
func (e *env) subscribe(path string) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := e.sse.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	// One slot per event a lockstep epoch can produce (epoch, spill,
	// and the initial status frame) so the reader never stalls the
	// server's writer while the driver is mid-request.
	s := &stream{frames: make(chan frame, 4), cancel: cancel}
	go func() {
		defer close(s.frames)
		defer resp.Body.Close()
		err := readFrames(ctx, resp.Body, s.frames)
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}()
	return s, nil
}

// readFrames parses "event: epoch" frames off an SSE body.
func readFrames(ctx context.Context, body io.Reader, out chan<- frame) error {
	br := bufio.NewReader(body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "epoch":
			var st struct {
				Epoch uint64 `json:"epoch"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return fmt.Errorf("sse: bad epoch frame: %w", err)
			}
			select {
			case out <- frame{Epoch: st.Epoch, At: time.Now()}:
			case <-ctx.Done():
				return nil
			}
		case line == "":
			event = ""
		}
	}
}

// await returns the first frame at or past epoch.
func (s *stream) await(epoch uint64) (frame, error) {
	timeout := time.NewTimer(sseWait)
	defer timeout.Stop()
	for {
		select {
		case f, ok := <-s.frames:
			if !ok {
				s.mu.Lock()
				err := s.err
				s.mu.Unlock()
				if err == nil {
					err = errors.New("sse: stream closed")
				}
				return frame{}, err
			}
			if f.Epoch >= epoch {
				return f, nil
			}
		case <-timeout.C:
			return frame{}, fmt.Errorf("sse: no frame for epoch %d within %v", epoch, sseWait)
		}
	}
}

// close cancels the subscription and waits for the reader to end.
func (s *stream) close() {
	s.cancel()
	for range s.frames {
	}
}
