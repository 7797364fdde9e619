package otlp

import (
	"testing"

	"github.com/openstream/aftermath/internal/leakcheck"
)

// TestMain guards the package against leaked goroutines: every poll
// that reads runs its scanner on a goroutine of its own, which must
// be gone when the poll returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
