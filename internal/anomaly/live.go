package anomaly

import (
	"sync"

	"github.com/openstream/aftermath/internal/core"
)

// LiveScanner runs Scan over live-trace snapshots with epoch-keyed
// memoization: a query against an unchanged epoch is a map lookup, and
// only epochs that actually received data are re-scanned. The dirty
// granularity is deliberately the whole epoch, not individual windows:
// every detector scores against trace-global baselines (per-type
// duration medians, the machine-wide remote-access fraction, pooled
// counter rates), so new data shifts the baseline of *every* window —
// reusing pre-append window results would silently diverge from a
// batch Scan of the same prefix, which the batch-equivalence harness
// forbids. Within one epoch, though, nothing is dirty, and a polling
// viewer hits the memo until the next publish.
//
// This memo is the only thing that makes a live scan cheaper than a
// batch one. A publish derives no baselines (core.snapshotLocked), so
// the first scan of an epoch costs what Scan costs on a batch load of
// the same prefix — one walk of the tasks and their communication
// events — and an epoch nobody asks about costs nothing.
//
// Memo entries are keyed by a caller-supplied canonical string rather
// than the Config itself: Config carries a *TaskFilter, which the query
// layer builds afresh (pointer-distinct) from the query on every
// request, so a pointer key would never hit and would fill the memo
// with dead entries. The key must determine the scan inputs (window
// bounds, window count, score cutoff, and the filter's types,
// durations and read/write nodes) — the HTTP viewer passes the scan
// projection's canonical query; callers that construct configs ad hoc
// can pass "" to bypass the memo.
//
// Safe for concurrent use. Returned slices are shared between callers
// of the same (epoch, key) and must not be modified.
type LiveScanner struct {
	mu    sync.Mutex
	epoch uint64
	fresh bool
	memo  map[string][]Anomaly
	// order holds the memo keys oldest-insertion first; when the memo
	// is full, the oldest entry is evicted rather than refusing new
	// keys (a refusal would permanently stop caching the scans of
	// whatever windows the user is looking at *now* as soon as 256
	// stale keys accumulated in an epoch).
	order []string
}

// memoLimit bounds the per-epoch memo.
const memoLimit = 256

// NewLiveScanner returns an empty scanner.
func NewLiveScanner() *LiveScanner {
	return &LiveScanner{memo: make(map[string][]Anomaly)}
}

// Scan returns the ranked findings for the snapshot, identical to
// Scan(tr, cfg), reusing the memoized result for key when the epoch
// has not advanced since it was computed.
func (s *LiveScanner) Scan(tr *core.Trace, epoch uint64, key string, cfg Config) []Anomaly {
	if key == "" {
		return Scan(tr, cfg)
	}
	s.mu.Lock()
	if !s.fresh || epoch > s.epoch {
		s.epoch = epoch
		s.fresh = true
		s.memo = make(map[string][]Anomaly)
		s.order = s.order[:0]
	} else if epoch < s.epoch {
		// A reader still holding an older snapshot: scan it directly
		// without disturbing the current epoch's memo.
		s.mu.Unlock()
		return Scan(tr, cfg)
	}
	if found, ok := s.memo[key]; ok {
		s.mu.Unlock()
		return found
	}
	s.mu.Unlock()

	found := Scan(tr, cfg)

	s.mu.Lock()
	if s.fresh && s.epoch == epoch {
		if _, dup := s.memo[key]; !dup {
			if len(s.memo) >= memoLimit {
				delete(s.memo, s.order[0])
				s.order = s.order[1:]
			}
			s.memo[key] = found
			s.order = append(s.order, key)
		}
	}
	s.mu.Unlock()
	return found
}
