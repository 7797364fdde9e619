package ingest

import (
	"testing"

	"github.com/openstream/aftermath/internal/leakcheck"
)

// TestMain guards the package against leaked goroutines: opening or
// following a span file polls the span decoder, whose scanner runs on
// a goroutine of its own for the length of a poll.
func TestMain(m *testing.M) { leakcheck.Main(m) }
