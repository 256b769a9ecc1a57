package population

import (
	"context"
	"errors"
	"testing"

	"chainchaos/internal/pipeline"
)

// domainsEqual fails the test if the two domains differ in any generated
// field (name, assignment, truth labels, or a single certificate byte).
func domainsEqual(t *testing.T, label string, i int, da, db *Domain) {
	t.Helper()
	if da.Rank != db.Rank || da.Name != db.Name || da.CA != db.CA || da.Server != db.Server || da.Truth != db.Truth {
		t.Fatalf("%s: domain %d differs: %+v vs %+v", label, i, da, db)
	}
	if len(da.List) != len(db.List) {
		t.Fatalf("%s: domain %d list length differs (%d vs %d)", label, i, len(da.List), len(db.List))
	}
	for j := range da.List {
		if !da.List[j].Equal(db.List[j]) {
			t.Fatalf("%s: domain %d cert %d differs", label, i, j)
		}
	}
}

// TestSourceStreamMatchesGenerate: the streaming Source yields exactly the
// batch population, in rank order, for several (seed, workers)
// combinations.
func TestSourceStreamMatchesGenerate(t *testing.T) {
	const size = 300
	cases := []struct {
		seed    int64
		workers int
	}{
		{7, 1},
		{7, 4},
		{7, 16},
		{11, 8},
	}
	for _, tc := range cases {
		batch := Generate(Config{Size: size, Seed: tc.seed, Workers: 1})
		s := NewSource(Config{Size: size, Seed: tc.seed, Workers: tc.workers})
		var streamed []*Domain
		err := s.Flow(context.Background(), pipeline.Options{}).
			Drain(func(_ int, d *Domain) error {
				streamed = append(streamed, d)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != size {
			t.Fatalf("seed=%d workers=%d: streamed %d domains, want %d", tc.seed, tc.workers, len(streamed), size)
		}
		for i := range streamed {
			domainsEqual(t, "stream vs batch", i, batch.Domains[i], streamed[i])
		}
	}
}

// TestGeneratorRankIndependence: any generator produces any rank, in any
// order, with identical output — which is what lets workers split the
// stream arbitrarily.
func TestGeneratorRankIndependence(t *testing.T) {
	s := NewSource(Config{Size: 50, Seed: 3})
	g1, g2 := s.Generator(), s.Generator()
	// g1 walks forward, g2 backward; every rank must agree.
	forward := make([]*Domain, 50)
	for rank := 1; rank <= 50; rank++ {
		forward[rank-1] = g1.Domain(rank)
	}
	for rank := 50; rank >= 1; rank-- {
		domainsEqual(t, "order independence", rank-1, forward[rank-1], g2.Domain(rank))
	}
}

// TestSourceEachStopsOnError: a yield error aborts the stream promptly and
// surfaces to the caller.
func TestSourceEachStopsOnError(t *testing.T) {
	s := NewSource(Config{Size: 10000, Seed: 1, Workers: 4})
	stop := errors.New("enough")
	seen := 0
	err := s.Each(context.Background(), pipeline.Options{}, func(d *Domain) error {
		if seen++; seen > 25 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
}
