package study

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"chainchaos/internal/pipeline"
)

// TestStudyWorkerInvariant: the JSONL record stream and every tally of the
// report are identical for several (workers, concurrency) configurations.
func TestStudyWorkerInvariant(t *testing.T) {
	const sites = 16
	base := Config{Sites: sites, Seed: 4, Vantages: 2, Concurrency: 8}
	var first *Report
	var firstJSONL []byte
	for _, tc := range []struct {
		workers, concurrency int
	}{
		{1, 1},
		{4, 8},
		{8, 4},
		{2, 2},
	} {
		cfg := base
		cfg.Workers = tc.workers
		cfg.Concurrency = tc.concurrency
		rep, jsonl, _ := runStudy(t, cfg)
		if first == nil {
			first, firstJSONL = rep, jsonl
			continue
		}
		if !bytes.Equal(firstJSONL, jsonl) {
			t.Fatalf("workers=%d concurrency=%d: JSONL stream differs from the first configuration", tc.workers, tc.concurrency)
		}
		if !reflect.DeepEqual(rep, first) {
			t.Fatalf("workers=%d concurrency=%d: tallies differ:\n%+v\n%+v", tc.workers, tc.concurrency, rep, first)
		}
	}
	if len(bytes.Split(bytes.TrimSpace(firstJSONL), []byte("\n"))) != sites {
		t.Fatalf("JSONL stream does not hold one line per site")
	}
}

// failAfter errors every write past the first n.
type failAfter struct {
	buf  bytes.Buffer
	n    int
	errv error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.errv
	}
	f.n--
	return f.buf.Write(p)
}

// TestStudyStreamResume: a checkpointed run killed mid-stream resumes from
// the journal watermark and the concatenated output is byte-identical to an
// uninterrupted run.
func TestStudyStreamResume(t *testing.T) {
	const sites = 12
	cfg := Config{Sites: sites, Seed: 4, Vantages: 1, Concurrency: 4, Workers: 4}

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
	w := &failAfter{n: 5, errv: interrupted}
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
	if resume != 5 {
		t.Fatalf("resume rank = %d, want 5 (five lines were written)", resume)
	}
	rest := &bytes.Buffer{}
	rep, err := RunStream(context.Background(), cfg, Stream{Out: rest, Journal: j2, Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeavesGenerated != sites-resume {
		t.Errorf("resumed run minted %d leaves, want %d", rep.LeavesGenerated, sites-resume)
	}

	combined := append(append([]byte(nil), w.buf.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(combined, full.Bytes()) {
		t.Fatalf("resumed output differs from uninterrupted run:\ncombined:\n%s\nfull:\n%s", combined, full.Bytes())
	}
}
