package study

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

// reuseCfg is a study farm with paper-realistic chain sharing: most sites
// serve one of a handful of pooled slot chains.
func reuseStudyCfg(sites int) Config {
	return Config{
		Sites: sites, Seed: 9, Vantages: 2, Concurrency: 4, Workers: 4,
		Reuse: 0.8, DistinctChains: 6,
	}
}

// TestStudyDedupBitIdentical: with chain reuse in the farm, Dedup must change
// only the cost of the run — the per-site JSONL stream, which carries every
// site's assignment, grade and verdicts, and the fault-free aggregates stay
// identical with the cache on or off.
func TestStudyDedupBitIdentical(t *testing.T) {
	cfg := reuseStudyCfg(80)

	run := func(dedup bool) (*Report, []byte, *obs.Snapshot) {
		c := cfg
		c.Dedup = dedup
		c.Metrics = obs.NewRegistry()
		rep, out, _ := runStudy(t, c)
		return rep, out, c.Metrics.Snapshot()
	}

	off, offOut, offSnap := run(false)
	on, onOut, onSnap := run(true)

	if !bytes.Equal(offOut, onOut) {
		t.Errorf("JSONL streams differ dedup on vs off (%d vs %d bytes)", len(offOut), len(onOut))
	}
	if !reflect.DeepEqual(on.Passes, off.Passes) || on.Streamed != off.Streamed || on.StreamedCompliant != off.StreamedCompliant {
		t.Errorf("site tallies differ:\n on: %+v\noff: %+v", on, off)
	}
	if on.ScanErrors != off.ScanErrors || on.Lost != off.Lost ||
		on.Rescanned != off.Rescanned || on.FaultsInjected != off.FaultsInjected {
		t.Errorf("fault-free aggregates differ:\n on: %+v\noff: %+v", on, off)
	}
	if on.LeavesGenerated != off.LeavesGenerated {
		t.Errorf("leaves minted differ: %d vs %d", on.LeavesGenerated, off.LeavesGenerated)
	}
	if on.LeavesGenerated >= cfg.Sites {
		t.Errorf("reuse minted %d leaves for %d sites: slots did not share", on.LeavesGenerated, cfg.Sites)
	}

	hits, misses := onSnap.Counters["study.vcache.hits"], onSnap.Counters["study.vcache.misses"]
	if hits == 0 {
		t.Error("dedup run saw no cache hits over a Reuse=0.8 farm")
	}
	if hits+misses != int64(cfg.Sites) {
		t.Errorf("hits(%d)+misses(%d) != sites(%d)", hits, misses, cfg.Sites)
	}
	if n := offSnap.Counters["study.vcache.hits"] + offSnap.Counters["study.vcache.misses"]; n != 0 {
		t.Errorf("dedup-off run consulted the cache %d times; want 0", n)
	}
}

// TestStudyDedupWorkerInvariant: the dedup stream is byte-identical for any
// (workers, concurrency) configuration — the cache changes who grades
// a chain first, never what any site's record says. So is the cache's insert
// count, the distinct-chain figure cmd/study prints: two workers may both
// miss one chain, but only the first Put inserts it.
func TestStudyDedupWorkerInvariant(t *testing.T) {
	base := reuseStudyCfg(48)
	base.Dedup = true
	var first []byte
	var firstInserts int64
	for _, tc := range []struct{ workers, concurrency int }{
		{1, 1},
		{4, 8},
		{8, 4},
		{2, 2},
	} {
		cfg := base
		cfg.Workers, cfg.Concurrency = tc.workers, tc.concurrency
		cfg.Metrics = obs.NewRegistry()
		_, jsonl, _ := runStudy(t, cfg)
		c := cfg.Metrics.Snapshot().Counters
		inserts := c["study.vcache.inserts"]
		if inserts+c["study.vcache.races"] != c["study.vcache.misses"] {
			t.Errorf("workers=%d: %d inserts and %d races for %d misses", tc.workers, inserts, c["study.vcache.races"], c["study.vcache.misses"])
		}
		if first == nil {
			first, firstInserts = jsonl, inserts
			continue
		}
		if !bytes.Equal(first, jsonl) {
			t.Fatalf("workers=%d concurrency=%d: JSONL differs from first configuration",
				tc.workers, tc.concurrency)
		}
		if inserts != firstInserts {
			t.Errorf("workers=%d concurrency=%d: %d cache inserts, first configuration %d",
				tc.workers, tc.concurrency, inserts, firstInserts)
		}
	}
}

// TestStudyDedupResume: a checkpointed dedup run killed mid-stream resumes
// from the journal watermark; the resumed process re-materializes the slots
// it needs and the concatenated output is byte-identical to an uninterrupted
// run.
func TestStudyDedupResume(t *testing.T) {
	cfg := reuseStudyCfg(24)
	cfg.Dedup = true
	cfg.Vantages = 1

	var full bytes.Buffer
	if _, err := RunStream(context.Background(), cfg, Stream{Out: &full}); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "study.ckpt")
	j, err := pipeline.OpenJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	j.Every = 1
	interrupted := errors.New("killed")
	w := &failAfter{n: 7, errv: interrupted}
	_, err = RunStream(context.Background(), cfg, Stream{Out: w, Journal: j})
	if !errors.Is(err, interrupted) {
		t.Fatalf("first run err = %v, want the injected kill", err)
	}
	j.Close()

	j2, err := pipeline.OpenJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resume := j2.Last(pipeline.SinkName("grade")) + 1
	if resume != 7 {
		t.Fatalf("resume rank = %d, want 7 (seven lines were written)", resume)
	}
	rest := &bytes.Buffer{}
	if _, err := RunStream(context.Background(), cfg, Stream{Out: rest, Journal: j2, Resume: resume}); err != nil {
		t.Fatal(err)
	}

	combined := append(append([]byte(nil), w.buf.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(combined, full.Bytes()) {
		t.Fatalf("resumed output differs from uninterrupted run:\ncombined:\n%s\nfull:\n%s", combined, full.Bytes())
	}
}
