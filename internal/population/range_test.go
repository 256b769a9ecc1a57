package population

import (
	"context"
	"fmt"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/pipeline"
)

// rangeKey is the identity a rank's domain must reproduce across runs:
// name, issuer, server, and the exact certificate list.
func rangeKey(d *Domain) string {
	digest := certmodel.ListDigest(d.List)
	return d.Name + "|" + d.CA + "|" + d.Server + "|" + fmt.Sprintf("%x", digest)
}

// TestSourceRangeInvariance: a Flow restricted to [Resume, Limit) emits
// exactly the domains ranks Resume..Limit-1 of a full-range flow emit — the
// leased sub-range a distributed worker runs is bit-identical to the same
// ranks of the full population, including reuse-slot domains.
func TestSourceRangeInvariance(t *testing.T) {
	cfg := Config{Size: 120, Seed: 3, Workers: 4, ChainReuse: 0.3, ChainPool: 5}

	collect := func(resume, limit int) map[int]string {
		src := NewSource(cfg)
		got := map[int]string{}
		flow := src.Flow(context.Background(), pipeline.Options{
			Name: "poprange", Resume: resume, Limit: limit,
		})
		if err := flow.Drain(func(rank int, d *Domain) error {
			got[rank] = rangeKey(d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	full := collect(0, 0)
	if len(full) != cfg.Size {
		t.Fatalf("full flow emitted %d domains, want %d", len(full), cfg.Size)
	}

	for _, r := range [][2]int{{0, 40}, {40, 41}, {37, 93}, {93, cfg.Size}} {
		sub := collect(r[0], r[1])
		if len(sub) != r[1]-r[0] {
			t.Fatalf("range [%d, %d): emitted %d domains, want %d", r[0], r[1], len(sub), r[1]-r[0])
		}
		for rank, key := range sub {
			if rank < r[0] || rank >= r[1] {
				t.Fatalf("range [%d, %d): emitted out-of-range rank %d", r[0], r[1], rank)
			}
			if key != full[rank] {
				t.Fatalf("range [%d, %d): rank %d differs from full run:\nsub:  %s\nfull: %s",
					r[0], r[1], rank, key, full[rank])
			}
		}
	}
}
