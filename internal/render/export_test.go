package render

import (
	"bytes"
	"io"
)

// encodeWork encodes fb and returns how many byte runs the deflater
// tokenized.
func encodeWork(fb *Framebuffer) (int, error) {
	_, n, err := fb.encodePNG(io.Discard)
	return n, err
}

// resetGutters empties the label gutter cache: the next tile of every
// shape is cold, and builds its gutter and codes.
func resetGutters() {
	gutterCache.Lock()
	gutterCache.list = nil
	gutterCache.Unlock()
}

// encodeLive encodes fb as though it had no label gutter, every head
// packed and tokenized, and returns the bytes and how many byte runs the
// deflater tokenized.
func encodeLive(fb *Framebuffer) ([]byte, int, error) {
	live := *fb
	live.gutter = nil
	var buf bytes.Buffer
	_, n, err := live.encodePNG(&buf)
	return buf.Bytes(), n, err
}
