package ui

import (
	"container/list"
	"errors"
	"sync"
)

// responseCache is a byte-bounded LRU cache for rendered viewer
// responses (PNG tiles, stats JSON). Loaded traces are immutable, so
// entries never need invalidation: a repeated pan/zoom/filter request
// is served straight from memory. Safe for concurrent use.
type responseCache struct {
	mu       sync.Mutex
	maxBytes int
	size     int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	// flight coalesces concurrent builds of one key (singleflight):
	// push notifications synchronize clients on epoch advance, so the
	// same expensive render is requested many times at once; only the
	// first request builds, the rest wait for its result.
	flight map[string]*flightCall
}

// cachedResponse is one stored response body.
type cachedResponse struct {
	key         string
	contentType string
	body        []byte
}

// newResponseCache returns a cache bounded to maxBytes of body data.
// Oversize policy (explicit): a single body larger than maxBytes is
// never admitted — it could only be stored by evicting everything
// else and would then immediately dominate the cache; admitting a
// body within the bound evicts least-recently-used entries until the
// total fits again.
func newResponseCache(maxBytes int) *responseCache {
	return &responseCache{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
}

// flightCall is one in-flight build. The leader fills ent (or err) and
// closes done; followers block on done and serve the shared result.
type flightCall struct {
	done chan struct{}
	ent  *cachedResponse
	err  error
}

// errBuildIncomplete is what a flight holds until its build returns:
// what followers get if it never does (it panicked).
var errBuildIncomplete error = serverError{errors.New("build did not complete")}

// begin registers an in-flight build for key. The first caller per key
// becomes the leader (leader=true) and MUST call lead; later callers
// get the leader's call to wait on.
func (c *responseCache) begin(key string) (f *flightCall, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flight[key]; ok {
		return f, false
	}
	f = &flightCall{done: make(chan struct{}), err: errBuildIncomplete}
	c.flight[key] = f
	return f, true
}

// lead is the leader's half of a flight: run build, store its body,
// and retire the flight however build ends — a panic (net/http recovers
// it per connection) would otherwise leave the key with waiters and no
// builder for good. Returns the X-Cache value.
func (c *responseCache) lead(key, contentType string, f *flightCall, build func() ([]byte, error)) string {
	defer c.finish(key, f)
	// Re-check under the flight: a previous leader may have filled the
	// cache between our miss and begin.
	if ent, ok := c.get(key); ok {
		f.ent, f.err = ent, nil
		return "HIT"
	}
	body, err := build()
	if err != nil {
		// Errors propagate to the waiting followers but are never
		// cached: the next request retries the build.
		f.err = err
		return ""
	}
	c.put(key, contentType, body)
	f.ent, f.err = &cachedResponse{key: key, contentType: contentType, body: body}, nil
	return "MISS"
}

// finish publishes the leader's result to the waiting followers and
// retires the flight, so later misses start a fresh build.
func (c *responseCache) finish(key string, f *flightCall) {
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(f.done)
}

// get returns the cached response for key and marks it most recently
// used.
func (c *responseCache) get(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cachedResponse), true
}

// put stores a response body. body must not be modified by the caller
// afterwards. Bodies larger than maxBytes are not stored (see
// newResponseCache for the policy). Storing under an existing key —
// normally a concurrent request that computed the same response, but
// possibly a response recomputed under a key that should have changed
// — always replaces the stored entry with correct byte accounting, so
// a stale body can never be pinned. Stored cachedResponse values are
// immutable (readers hold them outside the lock), so replacement
// swaps in a fresh entry rather than mutating the old one.
func (c *responseCache) put(key, contentType string, body []byte) {
	if len(body) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cachedResponse)
		c.order.MoveToFront(el)
		c.size += len(body) - len(ent.body)
		el.Value = &cachedResponse{key: key, contentType: contentType, body: body}
		c.evictLocked()
		return
	}
	el := c.order.PushFront(&cachedResponse{key: key, contentType: contentType, body: body})
	c.items[key] = el
	c.size += len(body)
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the byte bound
// holds again. Callers hold c.mu.
func (c *responseCache) evictLocked() {
	for c.size > c.maxBytes {
		last := c.order.Back()
		if last == nil {
			break
		}
		ent := last.Value.(*cachedResponse)
		c.order.Remove(last)
		delete(c.items, ent.key)
		c.size -= len(ent.body)
	}
}

// stats returns the current entry count and byte size (for tests and
// diagnostics).
func (c *responseCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.size
}
