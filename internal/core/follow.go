package core

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// Follower tails a growing trace file into a Live trace: a poll loop
// feeds newly appended records and publishes a snapshot whenever data
// arrived. Unlike a bare Feed loop it owns its resources — Close stops
// the poll goroutine and releases the file handle — and it watches the
// file for truncation: a log-rotated or rewritten trace can never be
// resumed mid-stream (the decoder's offset would land inside different
// bytes), so shrinking below the bytes already consumed surfaces as a
// sticky descriptive ingest error instead of silently decoding
// garbage.
type Follower struct {
	lv   *Live
	path string
	rc   io.ReadCloser
	sr   trace.Decoder

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// FollowDecoder tails path into lv through a caller-supplied decoder
// reading from rc; the ingest layer opens the file and picks the
// decoder for its format. The initial feed runs synchronously (an error
// closes rc and fails construction); the poll loop then owns rc, and
// Close releases it. The returned Follower must be closed to release
// the poll goroutine and the file handle.
func FollowDecoder(lv *Live, path string, rc io.ReadCloser, dec trace.Decoder, pollEvery time.Duration) (*Follower, error) {
	if pollEvery <= 0 {
		pollEvery = 500 * time.Millisecond
	}
	f := &Follower{
		lv:   lv,
		path: path,
		rc:   rc,
		sr:   dec,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if _, err := lv.Feed(f.sr); err != nil {
		rc.Close()
		return nil, err
	}
	go f.run(pollEvery)
	return f, nil
}

// run is the poll loop: every tick checks the file for truncation and
// feeds whatever was appended. It exits on the first ingest error
// (sticky on the Live, so /live pollers can tell dead ingest from a
// quiet run) or when Close is called.
func (f *Follower) run(pollEvery time.Duration) {
	defer close(f.done)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		if err := f.checkTruncation(); err != nil {
			f.lv.noteErr(err)
			return
		}
		if _, err := f.lv.Feed(f.sr); err != nil {
			// Feed already recorded the sticky error; stop polling.
			// The snapshots published so far keep serving.
			return
		}
	}
}

// checkTruncation stats the trace file and reports an error when it
// shrank below the bytes already consumed plus the buffered partial
// tail — the signature of truncation or rotate-and-rewrite. Plain
// appends only ever grow the file; a stat failure (file deleted) is
// reported the same way.
func (f *Follower) checkTruncation() error {
	info, err := os.Stat(f.path)
	if err != nil {
		return fmt.Errorf("trace file %s: %w (deleted or rotated away while following)", f.path, err)
	}
	have := f.sr.Consumed() + int64(f.sr.Buffered())
	if info.Size() < have {
		return fmt.Errorf(
			"trace file %s truncated while following: size shrank to %d bytes below the %d already read (rotated or rewritten?); restart the follow to pick up the new file",
			f.path, info.Size(), have)
	}
	return nil
}

// Close stops the poll loop, waits for it to exit, closes the trace
// file and shuts down the live trace's background spill workers. Safe
// to call more than once; the error is that of the first close.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		close(f.stop)
		<-f.done
		err := f.rc.Close()
		if lerr := f.lv.Close(); err == nil {
			err = lerr
		}
		f.closeErr = err
	})
	return f.closeErr
}
