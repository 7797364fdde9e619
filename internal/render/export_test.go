package render

import "io"

// scannedBytes encodes fb and returns how many scanline bytes the
// deflater tokenized.
func scannedBytes(fb *Framebuffer) (int, error) {
	return fb.encodePNG(io.Discard)
}
