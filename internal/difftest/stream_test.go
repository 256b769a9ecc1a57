package difftest

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/validate"
)

// verdictsEqual compares two verdict lists from different population
// generations: every field except the certificate pointers by value, the
// constructed paths certificate by certificate and the findings by their
// observable fields (lazily-cached certificate internals, which a finding
// reaches through the certificate its text names, rule out
// reflect.DeepEqual across runs).
func verdictsEqual(t *testing.T, i int, name string, a, b []ClientVerdict) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record %d (%s): %d verdicts vs %d", i, name, len(a), len(b))
	}
	for j := range a {
		va, vb := a[j], b[j]
		if va.Client != vb.Client || va.Kind != vb.Kind {
			t.Fatalf("record %d (%s) verdict %d client differs: %s/%v vs %s/%v", i, name, j, va.Client, va.Kind, vb.Client, vb.Kind)
		}
		oa, ob := va.Outcome, vb.Outcome
		if fmt.Sprint(oa.Err) != fmt.Sprint(ob.Err) ||
			oa.Validation.OK != ob.Validation.OK ||
			!findingsEqual(oa.Validation.Findings, ob.Validation.Findings) ||
			oa.CandidatesConsidered != ob.CandidatesConsidered ||
			oa.PathsTried != ob.PathsTried || oa.AIAFetches != ob.AIAFetches {
			t.Fatalf("record %d (%s) %s outcome differs:\nstream: %+v\nbatch:  %+v", i, name, va.Client, oa, ob)
		}
		if len(oa.Path) != len(ob.Path) {
			t.Fatalf("record %d (%s) %s path length differs: %d vs %d", i, name, va.Client, len(oa.Path), len(ob.Path))
		}
		for k := range oa.Path {
			if !oa.Path[k].Equal(ob.Path[k]) {
				t.Fatalf("record %d (%s) %s path cert %d differs", i, name, va.Client, k)
			}
		}
	}
}

// findingsEqual compares findings by index, problem and rendered text.
func findingsEqual(a, b []validate.Finding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Problem != b[i].Problem || a[i].Detail() != b[i].Detail() {
			return false
		}
	}
	return true
}

// TestRunStreamMatchesBatch: the streaming differential evaluation — domains
// generated, analyzed, and graded in flight — produces a Summary deep-equal
// to the batch path over the materialized population, for several
// (seed, workers) combinations.
func TestRunStreamMatchesBatch(t *testing.T) {
	const size = 1500
	for _, tc := range []struct {
		seed    int64
		workers int
	}{
		{3, 1},
		{3, 4},
		{3, 8},
		{9, 3},
	} {
		cfg := population.Config{Size: size, Seed: tc.seed, Workers: tc.workers}
		batch := (&Harness{Workers: tc.workers, KeepRecords: true}).Run(population.Generate(cfg))

		src := population.NewSource(cfg)
		stream, err := (&Harness{Workers: tc.workers, KeepRecords: true}).
			RunStream(context.Background(), src, pipeline.Options{Name: "difftest"})
		if err != nil {
			t.Fatalf("seed=%d workers=%d: RunStream: %v", tc.seed, tc.workers, err)
		}

		// Records hold certificates from two separate generation runs whose
		// lazily-cached internals differ; compare the generated identity and
		// the verdicts field by field, then the aggregate summaries.
		if len(stream.Records) != len(batch.Records) {
			t.Fatalf("seed=%d workers=%d: %d streamed records, batch has %d",
				tc.seed, tc.workers, len(stream.Records), len(batch.Records))
		}
		for i := range stream.Records {
			rs, rb := stream.Records[i], batch.Records[i]
			ds, db := rs.Domain, rb.Domain
			if ds.Rank != db.Rank || ds.Name != db.Name || ds.CA != db.CA || ds.Server != db.Server || ds.Truth != db.Truth {
				t.Fatalf("record %d domain differs: %+v vs %+v", i, ds, db)
			}
			verdictsEqual(t, i, ds.Name, rs.Verdicts, rb.Verdicts)
			if !reflect.DeepEqual(rs.Causes, rb.Causes) {
				t.Fatalf("record %d (%s) causes differ: %v vs %v", i, ds.Name, rs.Causes, rb.Causes)
			}
		}
		stream.Records, batch.Records = nil, nil
		if !reflect.DeepEqual(stream, batch) {
			t.Errorf("seed=%d workers=%d: streaming summary differs from batch:\nstream: %+v\nbatch:  %+v",
				tc.seed, tc.workers, stream, batch)
		}
	}
}

// TestRunStreamCancellation: cancelling the context aborts the streaming run
// with the context error instead of hanging or fabricating a summary.
func TestRunStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := population.NewSource(population.Config{Size: 100000, Seed: 1, Workers: 4})
	sum, err := (&Harness{Workers: 4}).RunStream(ctx, src, pipeline.Options{})
	if err == nil {
		t.Fatalf("cancelled RunStream returned %+v with nil error", sum)
	}
}
