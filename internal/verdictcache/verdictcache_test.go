package verdictcache

import (
	"fmt"
	"sync"
	"testing"

	"chainchaos/internal/obs"
)

func key(i int) Key {
	var k Key
	k.Digest[0] = byte(i)
	k.Digest[1] = byte(i >> 8)
	return k
}

// TestCacheBasics: miss, insert, hit, and the counter/gauge accounting that
// the CI smoke asserts on (hits + misses == lookups, inserts == entries).
func TestCacheBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[string]("vc", reg)

	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1), "one")
	v, ok := c.Get(key(1))
	if !ok || v != "one" {
		t.Fatalf("Get = %q, %v after Put", v, ok)
	}

	// Same digest, different leaf-match bit: distinct entries.
	k2 := key(1)
	k2.Match = true
	if _, ok := c.Get(k2); ok {
		t.Fatal("the match bit is not part of the key")
	}
	c.Put(k2, "matched")

	// Duplicate Put: first insert wins.
	c.Put(key(1), "two")
	if v, _ := c.Get(key(1)); v != "one" {
		t.Fatalf("duplicate Put overwrote the entry: %q", v)
	}

	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	snap := reg.Snapshot()
	counters := snap.Counters
	if counters["vc.hits"] != 2 || counters["vc.misses"] != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", counters["vc.hits"], counters["vc.misses"])
	}
	if counters["vc.inserts"] != 2 || counters["vc.races"] != 1 {
		t.Fatalf("inserts/races = %d/%d, want 2/1", counters["vc.inserts"], counters["vc.races"])
	}
	if snap.Gauges["vc.entries"] != 2 {
		t.Fatalf("entries gauge = %d, want 2", snap.Gauges["vc.entries"])
	}
}

// TestCacheNil: a nil cache is an always-miss, drop-writes cache, so callers
// thread an optional cache unconditionally.
func TestCacheNil(t *testing.T) {
	var c *Cache[int]
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(key(1), 7)
	if c.Len() != 0 || c.Name() != "" {
		t.Fatal("nil cache is not inert")
	}
}

// TestCacheFillThenReadHammer: fill from many goroutines, then hammer the
// read path from many goroutines (run under -race via the Makefile's
// RACE_PKGS). Every reader must observe every entry.
func TestCacheFillThenReadHammer(t *testing.T) {
	const writers, entries, readers = 8, 512, 8
	reg := obs.NewRegistry()
	c := New[int]("vc", reg)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping key ranges force first-insert-wins races; the
			// value is derived from the key, so every winner stored the
			// same value.
			for i := 0; i < entries; i++ {
				c.Put(key(i), i)
			}
		}(w)
	}
	wg.Wait()

	if c.Len() != entries {
		t.Fatalf("Len = %d, want %d", c.Len(), entries)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < entries; i++ {
				v, ok := c.Get(key(i))
				if !ok || v != i {
					panic(fmt.Sprintf("read %d = %d, %v", i, v, ok))
				}
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Counters["vc.inserts"] != entries {
		t.Fatalf("inserts = %d, want %d", snap.Counters["vc.inserts"], entries)
	}
	if snap.Counters["vc.races"] != int64(writers*entries-entries) {
		t.Fatalf("races = %d, want %d", snap.Counters["vc.races"], writers*entries-entries)
	}
	if snap.Counters["vc.hits"] != int64(readers*entries) {
		t.Fatalf("hits = %d, want %d", snap.Counters["vc.hits"], readers*entries)
	}
}

// TestCacheShardSpread: digests spread across stripes (the leading byte
// drives shardOf), so parallel inserts are not serialized on one mutex.
func TestCacheShardSpread(t *testing.T) {
	c := New[int]("vc", nil)
	used := map[*shard[int]]bool{}
	for i := 0; i < 256; i++ {
		var k Key
		k.Digest[0] = byte(i)
		used[c.shardOf(k)] = true
	}
	if len(used) != shardCount {
		t.Fatalf("256 leading bytes hit %d shards, want %d", len(used), shardCount)
	}
}
