package population

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: the lazy replica yields rand.NewSource's exact
// stream through every rand.Rand method the generator uses, for the seeds
// that exercise Seed's normalization (zero, the 2³¹−1 modulus and its
// multiples, both int64 extremes) and for thousands of random seeds. The
// special seeds draw three register lengths, so the tap wraps around and
// reads words the feed wrote back; the random ones draw a domain's worth.
// One source is reseeded throughout, so a stale word from the previous seed
// would show.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 89482311, -89482311, m, -m, m - 1, m + 1, 2 * m, -2 * m, 3*m + 7, -(3*m + 7),
		math.MaxInt64 / m * m, math.MinInt64 / m * m, math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	}
	long := len(seeds)
	r := rand.New(rand.NewSource(20240315))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}

	got := rand.New(newLazySource(0))
	for i, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		draws := 24
		if i < long || i%300 == 0 {
			draws = 3 * rngLen
		}
		for j := 0; j < draws; j++ {
			var g, w any
			switch j % 6 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = got.Intn(7), want.Intn(7)
			case 4:
				g, w = got.Intn(1<<20), want.Intn(1<<20)
			case 5:
				g, w = got.Intn(1<<40+3), want.Intn(1<<40+3)
			}
			if g != w {
				t.Fatalf("seed %d draw %d: replica %v, math/rand %v", seed, j, g, w)
			}
		}
	}

	// A fresh source seeded by its constructor matches too.
	fresh, want := rand.New(newLazySource(-5)), rand.New(rand.NewSource(-5))
	for j := 0; j < 2*rngLen; j++ {
		if g, w := fresh.Int63(), want.Int63(); g != w {
			t.Fatalf("fresh source draw %d: replica %d, math/rand %d", j, g, w)
		}
	}
}
