package atmtest

import (
	"image/png"
	"net/http/httptest"
	"testing"
)

// CheckServed is what the endpoint fuzzers hold every response to:
// whatever the trace bytes or the URL said, the answer is a result or
// a client error, never a 5xx, and a 200 that calls itself image/png
// decodes as one — out-of-range states painted in the fallback colour,
// a matrix with more shades than a palette holds and every image size
// the parameters allow all leave through Framebuffer.EncodePNG.
func CheckServed(tb testing.TB, url string, rec *httptest.ResponseRecorder) {
	tb.Helper()
	if rec.Code >= 500 {
		tb.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
	}
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "image/png" {
		return
	}
	if _, err := png.Decode(rec.Body); err != nil {
		tb.Fatalf("GET %s: body is not a PNG: %v", url, err)
	}
}
