package difftest

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
)

// reuseCfg is a population with paper-realistic chain sharing: most sites
// present one of a handful of pooled chains.
func reuseCfg(size int) population.Config {
	return population.Config{Size: size, Seed: 11, ChainReuse: 0.85, ChainPool: 12}
}

// collect is a Record tap that appends each emitted line, newline-ended,
// to out — the JSONL file a command writes through run.Output.
func collect(out *bytes.Buffer) func(int, []byte) error {
	return func(_ int, line []byte) error {
		if line != nil {
			out.Write(line)
			out.WriteByte('\n')
		}
		return nil
	}
}

// runOnce executes the harness batch path and returns the summary, the
// streamed record bytes, and the metrics snapshot.
func runOnce(t *testing.T, pop *population.Population, dedup bool, workers int) (*Summary, []byte, *obs.Snapshot) {
	t.Helper()
	var out bytes.Buffer
	reg := obs.NewRegistry()
	h := &Harness{Dedup: dedup, Workers: workers, Metrics: reg, Record: collect(&out)}
	sum := h.Run(pop)
	return sum, out.Bytes(), reg.Snapshot()
}

// TestDedupBitIdentical: with chain reuse in the population, the verdict
// cache must change only the cost of the run — the Summary and the per-chain
// JSONL stream stay byte-identical with dedup on or off, serial or parallel.
func TestDedupBitIdentical(t *testing.T) {
	pop := population.Generate(reuseCfg(400))

	base, baseOut, _ := runOnce(t, pop, false, 1)
	for _, tc := range []struct {
		name    string
		dedup   bool
		workers int
	}{
		{"dedup-serial", true, 1},
		{"dedup-parallel", true, 4},
		{"nodedup-parallel", false, 4},
	} {
		sum, out, snap := runOnce(t, pop, tc.dedup, tc.workers)
		if !reflect.DeepEqual(base, sum) {
			t.Errorf("%s: summary differs from dedup-off serial run:\n  off: %+v\n  got: %+v", tc.name, base, sum)
		}
		if !bytes.Equal(baseOut, out) {
			t.Errorf("%s: record stream differs from dedup-off serial run (%d vs %d bytes)", tc.name, len(baseOut), len(out))
		}
		hits, misses := snap.Counters["difftest.vcache.hits"], snap.Counters["difftest.vcache.misses"]
		if tc.dedup {
			if hits == 0 {
				t.Errorf("%s: cache saw no hits over a ChainReuse=0.85 population", tc.name)
			}
			if hits+misses != int64(sum.Total) {
				t.Errorf("%s: hits(%d)+misses(%d) != sites(%d)", tc.name, hits, misses, sum.Total)
			}
		} else if hits+misses != 0 {
			t.Errorf("%s: dedup off but cache counters moved (hits=%d misses=%d)", tc.name, hits, misses)
		}
	}
}

// TestDedupStreamBitIdentical: same identity through the streaming path.
func TestDedupStreamBitIdentical(t *testing.T) {
	cfg := reuseCfg(300)

	run := func(dedup bool) (*Summary, []byte, *obs.Snapshot) {
		var out bytes.Buffer
		reg := obs.NewRegistry()
		h := &Harness{Dedup: dedup, Workers: 4, Metrics: reg, Record: collect(&out)}
		src := population.NewSource(cfg)
		sum, err := h.RunStream(context.Background(), src, pipeline.Options{Name: "difftest", Metrics: reg})
		if err != nil {
			t.Fatalf("RunStream(dedup=%v): %v", dedup, err)
		}
		return sum, out.Bytes(), reg.Snapshot()
	}

	offSum, offOut, _ := run(false)
	onSum, onOut, snap := run(true)
	if !reflect.DeepEqual(offSum, onSum) {
		t.Errorf("streamed summary differs dedup on vs off:\n  off: %+v\n  on:  %+v", offSum, onSum)
	}
	if !bytes.Equal(offOut, onOut) {
		t.Errorf("streamed records differ dedup on vs off (%d vs %d bytes)", len(offOut), len(onOut))
	}
	if hits := snap.Counters["difftest.vcache.hits"]; hits == 0 {
		t.Error("streaming run saw no cache hits over a reuse population")
	}
	if got := snap.Gauges["difftest.vcache.entries"]; got == 0 || got >= int64(cfg.Size) {
		t.Errorf("cache holds %d entries for %d sites: reuse did not collapse the key space", got, cfg.Size)
	}
}
