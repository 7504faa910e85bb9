package fpsa

import "fpsa/internal/compilecache"

// CompileCache is the content-addressed deployment cache: placement,
// routing and bitstream artifacts keyed by the SHA-256 of the model's
// structure and the compile options, bounded by LRU eviction. Pass one via
// WithCache so every Compile of the same (model, options) pays for
// placement and routing exactly once per process — concurrent deploys of
// one key block on a single computation, distinct keys compute in
// parallel, and because the annealing portfolio and the router are
// deterministic, a cached artifact is byte-identical to a recompute. All
// methods are safe for concurrent use. The zero value is not usable;
// call NewCompileCache.
type CompileCache struct {
	c *compilecache.Cache
}

// NewCompileCache returns an empty cache bounded to maxEntries
// deployments (<= 0 selects the default, 128).
func NewCompileCache(maxEntries int) *CompileCache {
	return &CompileCache{c: compilecache.New(maxEntries)}
}

// Len reports the number of cached deployments.
func (c *CompileCache) Len() int { return c.c.Len() }

// Counters reports cache hits and misses since construction.
func (c *CompileCache) Counters() (hits, misses int64) { return c.c.Counters() }
