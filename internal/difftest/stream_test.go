package difftest

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
)

// TestRunStreamMatchesBatch: the streaming differential evaluation — domains
// generated, analyzed, and graded in flight — produces the same Summary and
// the same record stream as the batch path over the materialized
// population, for several (seed, workers) combinations.
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
		var batchOut, streamOut bytes.Buffer
		batch := (&Harness{Workers: tc.workers, Record: collect(&batchOut)}).Run(population.Generate(cfg))

		src := population.NewSource(cfg)
		stream, err := (&Harness{Workers: tc.workers, Record: collect(&streamOut)}).
			RunStream(context.Background(), src, pipeline.Options{Name: "difftest"})
		if err != nil {
			t.Fatalf("seed=%d workers=%d: RunStream: %v", tc.seed, tc.workers, err)
		}
		if batchOut.Len() == 0 {
			t.Fatalf("seed=%d workers=%d: the batch run recorded no chain", tc.seed, tc.workers)
		}
		if !bytes.Equal(streamOut.Bytes(), batchOut.Bytes()) {
			t.Fatalf("seed=%d workers=%d: streamed records differ from batch:\nstream:\n%s\nbatch:\n%s",
				tc.seed, tc.workers, streamOut.Bytes(), batchOut.Bytes())
		}
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
