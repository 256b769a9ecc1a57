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

// TestSourceRangeInvariance: a Flow resumed at rank r emits exactly the
// domains ranks r..Size-1 of a full flow emit, including reuse-slot
// domains: a resumed run deploys the same population it would have
// finished uninterrupted.
func TestSourceRangeInvariance(t *testing.T) {
	cfg := Config{Size: 120, Seed: 3, Workers: 4, ChainReuse: 0.3, ChainPool: 5}

	collect := func(resume int) map[int]string {
		src := NewSource(cfg)
		got := map[int]string{}
		flow := src.Flow(context.Background(), pipeline.Options{Name: "poprange", Resume: resume})
		if err := flow.Drain(func(rank int, d *Domain) error {
			got[rank] = rangeKey(d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	full := collect(0)
	if len(full) != cfg.Size {
		t.Fatalf("full flow emitted %d domains, want %d", len(full), cfg.Size)
	}

	for _, resume := range []int{1, 40, 93, cfg.Size - 1} {
		sub := collect(resume)
		if len(sub) != cfg.Size-resume {
			t.Fatalf("resume %d: emitted %d domains, want %d", resume, len(sub), cfg.Size-resume)
		}
		for rank, key := range sub {
			if rank < resume {
				t.Fatalf("resume %d: emitted rank %d", resume, rank)
			}
			if key != full[rank] {
				t.Fatalf("resume %d: rank %d differs from full run:\nresumed: %s\nfull:    %s",
					resume, rank, key, full[rank])
			}
		}
	}
}
