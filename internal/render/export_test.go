package render

import "io"

// encodeWork encodes fb and returns how many byte runs the deflater
// tokenized.
func encodeWork(fb *Framebuffer) (int, error) {
	return fb.encodePNG(io.Discard)
}

// paintTile paints fb's tile, if it holds one, as the first drawing
// call would, and reports whether it did.
func paintTile(fb *Framebuffer) bool {
	kept := fb.tile.rows != nil
	if kept {
		fb.paint()
	}
	return kept
}
