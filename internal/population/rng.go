// Per-rank random stream: an exact replica of rand.NewSource whose Seed is
// lazy. Every domain reseeds its rng from (Config.Seed, rank) and then draws
// only about twenty numbers, but math/rand's Seed fills all 607 words of its
// additive lagged-Fibonacci register up front — a 1,841-step Lehmer warm-up
// per domain that dominated generation. The population's output is defined
// by math/rand's stream (math/rand keeps a seed's output stable across Go
// releases), so the replica must reproduce it draw for draw; it only defers
// the work.
//
// math/rand's Seed(s) normalizes s to x₀ ∈ [1, 2³¹−1), steps the Lehmer
// generator x ← 48271·x mod (2³¹−1) twenty times, then builds word i from the
// next three values:
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[n] = x₀·48271ⁿ mod (2³¹−1) and rngCooked is math/rand's fixed
// table. With 48271^(21+3i) precomputed, any word costs three modular
// multiplications, independent of i, so the replica builds a word the first
// time a draw reads it. The cooked table is not copied here: recoverCooked
// reads it back out of rand.NewSource(1) once at package initialization.
package population

import "math/rand"

const (
	rngLen = 607 // register length (math/rand's rngLen)
	rngTap = 273 // feedback tap distance (math/rand's rngTap)

	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	// lehmerJump[i] = 48271^(21+3i) mod (2³¹−1): the jump from x₀ to the
	// first of word i's three Lehmer values.
	lehmerJump = jumpTable()
	// rngCooked is math/rand's rngCooked table, recovered at init.
	rngCooked = recoverCooked()
)

func jumpTable() (jump [rngLen]uint64) {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lehmerA % lehmerM
	}
	for i := range jump {
		jump[i] = p
		p = p * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	return jump
}

// lehmerWord is word i of math/rand's register before the cooked XOR, for a
// normalized seed x0.
func lehmerWord(x0 uint64, i int) int64 {
	x := x0 * lehmerJump[i] % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	return u ^ int64(x)
}

// recoverCooked solves rand.NewSource(1)'s register from its first rngLen
// outputs and strips the Lehmer part. Draw k (from 0) adds vec[feed] and
// vec[tap] and stores the sum at feed, with feed = (333−k) mod 607 and
// tap = 606−k. Each feed index is written once in rngLen draws, so feed
// always reads an original word. From draw rngTap on, tap reads the sum
// draw k−rngTap stored; before it, tap reads the original word 606−k, which
// the later draws have already solved.
func recoverCooked() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
	return cooked
}

// lazySource is a rand.Source64 that yields exactly rand.NewSource's stream
// for every seed. Seed records the normalized seed and forgets the register;
// each word is built on its first read and then evolves as math/rand's does.
// Not safe for concurrent use (neither is rand.NewSource's).
type lazySource struct {
	x0        uint64
	tap, feed int
	built     [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is live
	vec       [rngLen]int64
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed normalizes seed exactly as math/rand does and resets the register.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.built = [len(s.built)]uint64{}
}

func (s *lazySource) word(i int) int64 {
	if s.built[i>>6]&(1<<(i&63)) == 0 {
		s.built[i>>6] |= 1 << (i & 63)
		s.vec[i] = lehmerWord(s.x0, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's rngSource.Uint64 over the lazily built register.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
