package aftermath

import (
	"bytes"
	"fmt"
	"io"
)

// traceBuffer is an io.Writer collecting a trace in memory.
type traceBuffer struct{ data []byte }

func (t *traceBuffer) Write(p []byte) (int, error) {
	t.data = append(t.data, p...)
	return len(p), nil
}

// byteReader wraps a byte slice as an io.Reader.
func byteReader(b []byte) io.Reader { return bytes.NewReader(b) }

// benchName formats a sub-benchmark name.
func benchName(prefix string, v int) string { return fmt.Sprintf("%s-%d", prefix, v) }
