package atmtest

import (
	"bytes"
	"image/png"
	"net/http/httptest"
	"testing"
)

// Judge holds the body of a 200 to a reference answer for the request
// target, a verb's path below the server's mount with its raw query:
// an error when the body is wrong. internal/atmtest/oracle's Trace is
// the one judge; it is named through an interface because the packages
// the oracle paints and parses with import atmtest in their own tests.
type Judge interface {
	Judge(target string, body []byte) error
}

// CheckServed is what the endpoint fuzzers hold every response to:
// whatever the trace bytes or the URL said, the answer is a result or
// a client error, never a 5xx, and a 200 that calls itself image/png
// decodes as one — out-of-range states painted in the fallback colour,
// a matrix with more shades than a palette holds and every image size
// the parameters allow all leave through Framebuffer.EncodePNG. With a
// judge of the trace served, a 200 is also the judge's answer.
func CheckServed(tb testing.TB, target string, rec *httptest.ResponseRecorder, j Judge) {
	tb.Helper()
	if rec.Code >= 500 {
		tb.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body)
	}
	if rec.Code != 200 {
		return
	}
	if rec.Header().Get("Content-Type") == "image/png" {
		if _, err := png.Decode(bytes.NewReader(rec.Body.Bytes())); err != nil {
			tb.Fatalf("GET %s: body is not a PNG: %v", target, err)
		}
	}
	if j != nil {
		if err := j.Judge(target, rec.Body.Bytes()); err != nil {
			tb.Fatalf("GET %s: %v", target, err)
		}
	}
}
