// Package obs is the repository's observability substrate: a dependency-free
// metrics registry of atomic counters, gauges and fixed-bucket histograms,
// built for instrumenting the scan→build→diff pipeline without perturbing
// it. Stage time is not kept here: internal/pipeline publishes each stage's
// <stage>.latency histogram and <stage>.items counter, and PipelineTable
// renders those pairs.
//
// The design goals, in order:
//
//   - Allocation-lean hot path. Instrumented code resolves its metric handles
//     once (Registry lookups take a lock) and then updates them with single
//     atomic operations — no map lookups, no interface boxing, no allocation
//     per event.
//   - Nil-safety. Every handle method is a no-op on a nil receiver and every
//     Registry getter returns nil from a nil registry, so components carry an
//     optional *Registry and instrument unconditionally; an unwired pipeline
//     pays one predictable branch per event.
//   - Deterministic snapshots. Registries take their time from an injectable
//     Now func (tests wire a faults.FakeClock), snapshot maps render in
//     sorted key order, and the JSON encoding is byte-stable for a given
//     state — the property the fault-injection tests assert.
//
// The paper's credibility rests on measurement transparency: every rate in
// Tables 3–11 is backed by a count of handshakes, AIA fetches, construction
// attempts and retries, and this package is where those counts live.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is valid everywhere and yields nil handles,
// whose methods are no-ops.
type Registry struct {
	// Now is the registry's time source, read through Time by every
	// latency the instrumented code measures (the pipeline's stage clock
	// among them); nil means time.Now. Tests inject a fake clock's Now so
	// latency histograms are deterministic.
	Now func() time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Time returns the registry's current time: the injected Now when set, the
// wall clock otherwise. Safe on a nil registry. Instrumented code reads its
// timestamps here so latency measurements stay deterministic under a fake
// clock.
func (r *Registry) Time() time.Time {
	if r != nil && r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later callers share the first creation's
// buckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n to the gauge. No-op on nil.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
