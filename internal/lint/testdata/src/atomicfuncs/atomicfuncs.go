// Package atomicfuncs is a lint fixture: the function-style sync/atomic
// API is banned, the typed atomics' methods are not.
package atomicfuncs

import "sync/atomic"

// counters holds a plain field driven through the function-style API
// (hits) and a typed atomic (gauge).
type counters struct {
	hits  int64
	gauge atomic.Int64
}

// typed is the legal pattern: every access is a method call.
func typed(c *counters) int64 {
	c.gauge.Add(1)
	return c.gauge.Load()
}

// functional uses the banned API; both calls must be flagged.
func functional(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1)
	return atomic.LoadInt64(&c.hits)
}

// suppressed demonstrates an accepted, documented exception.
func suppressed(c *counters) {
	//lint:ignore atomicfuncs fixture of a documented exception
	atomic.StoreInt64(&c.hits, 0)
}

// stale has a directive with no reason; the driver reports it instead of
// honoring it.
func stale(c *counters) {
	//lint:ignore atomicfuncs
	atomic.StoreInt64(&c.hits, 0)
}
