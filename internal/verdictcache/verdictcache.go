// Package verdictcache memoizes grading results per distinct certificate
// list. The paper's population-scale observation is that the Top-1M presents
// only a few thousand distinct lists, so grading every site independently is
// O(sites × clients) path-builds where O(unique chains × clients) plus
// O(sites) tallying suffices. The cache stores one value per list digest
// (plus the leaf-match bit); the rule for what may be stored under it —
// only domain-independent analysis, with leaf placement recomputed per site
// — lives in core.Memo, which every grader goes through.
//
// Every cache is filled while it is read, so reads and writes alike lock
// only the key's stripe.
package verdictcache

import (
	"sync"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/obs"
)

// Key identifies one memoized grading. A cache serves one grading
// configuration (client-profile set, trust context) for its whole life, so
// the key carries only what varies between lists.
type Key struct {
	// Digest is certmodel.ListDigest over the presented list.
	Digest certmodel.FP
	// Match records whether the presented leaf matches the queried hostname.
	// Client verdicts depend on the domain only through this bit (a
	// mismatched leaf fails hostname validation identically for every
	// domain), so keying on it keeps hostname-checking gradings memoizable
	// without memoizing anything domain-specific.
	Match bool
}

// shardCount is the lock-striping width. 64 shards keep contention negligible
// for any realistic worker count while the per-shard overhead stays at one
// mutex and one map header.
const shardCount = 64

// shard is one stripe: a mutex-guarded map.
type shard[V any] struct {
	mu sync.Mutex
	m  map[Key]V
}

// Cache is a sharded, lock-striped memo map. The zero value is not usable;
// call New. All methods are safe for concurrent use; a nil *Cache is valid
// everywhere and behaves as an always-miss, drop-writes cache, so callers
// thread an optional cache without branching.
type Cache[V any] struct {
	name   string
	shards [shardCount]shard[V]

	// Metric handles, resolved once at New (nil-safe no-ops when the
	// registry is nil).
	hits      *obs.Counter // <name>.hits: Get found an entry
	misses    *obs.Counter // <name>.misses: Get found nothing
	inserts   *obs.Counter // <name>.inserts: Put stored a new entry
	races     *obs.Counter // <name>.races: Put lost to a concurrent insert
	contended *obs.Counter // <name>.contended: a shard lock was busy on first try
	entries   *obs.Gauge   // <name>.entries: current entry count
}

// New creates an empty cache named name, registering its counters
// (<name>.hits, .misses, .inserts, .races, .contended) and the <name>.entries
// gauge on reg. A nil registry yields no-op handles.
func New[V any](name string, reg *obs.Registry) *Cache[V] {
	c := &Cache[V]{
		name:      name,
		hits:      reg.Counter(name + ".hits"),
		misses:    reg.Counter(name + ".misses"),
		inserts:   reg.Counter(name + ".inserts"),
		races:     reg.Counter(name + ".races"),
		contended: reg.Counter(name + ".contended"),
		entries:   reg.Gauge(name + ".entries"),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]V)
	}
	return c
}

// Name returns the cache's metric prefix.
func (c *Cache[V]) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// shardOf stripes by the digest's leading byte. ListDigest is a sha256, so
// the byte is uniform.
func (c *Cache[V]) shardOf(k Key) *shard[V] {
	return &c.shards[k.Digest[0]&(shardCount-1)]
}

// Get returns the memoized value for k, locking only k's stripe.
func (c *Cache[V]) Get(k Key) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	s := c.shardOf(k)
	c.lock(s)
	defer s.mu.Unlock()
	v, ok := s.m[k]
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// Put memoizes v under k, first insert wins: when two workers grade the same
// digest concurrently, both computed the same deterministic value, so the
// loser's copy is discarded (counted in <name>.races) and every later Get
// observes one canonical entry.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	s := c.shardOf(k)
	c.lock(s)
	defer s.mu.Unlock()
	if _, dup := s.m[k]; dup {
		c.races.Inc()
		return
	}
	s.m[k] = v
	c.inserts.Inc()
	c.entries.Add(1)
}

// lock acquires a stripe, counting the acquisitions that found it busy — the
// shard-contention signal the obs snapshot exposes.
func (c *Cache[V]) lock(s *shard[V]) {
	if s.mu.TryLock() {
		return
	}
	c.contended.Inc()
	s.mu.Lock()
}

// Len returns the number of memoized entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
