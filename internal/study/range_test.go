package study

import (
	"bytes"
	"context"
	"testing"
)

// TestStudyStreamRangeInvariance: a run resumed at rank r emits exactly the
// bytes ranks r..Sites-1 of a full run emit, the property resume rests on.
// It holds under chain reuse (slot sites) and dedup, where a resumed run
// materializes each slot at the first of its sites it reaches.
func TestStudyStreamRangeInvariance(t *testing.T) {
	const sites = 24
	cfg := Config{
		Sites: sites, Seed: 11, Vantages: 1, Concurrency: 4, Workers: 4,
		Reuse: 0.4, Dedup: true,
	}

	var full bytes.Buffer
	fullRep, err := RunStream(context.Background(), cfg, Stream{Out: &full})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	if fullRep.Streamed != sites || len(lines) != sites+1 {
		t.Fatalf("full run streamed %d sites in %d lines, want %d", fullRep.Streamed, len(lines)-1, sites)
	}

	for _, resume := range []int{1, 9, 17, sites - 1} {
		var buf bytes.Buffer
		recorded := 0
		rep, err := RunStream(context.Background(), cfg, Stream{
			Out: &buf, Resume: resume,
			Record: func(rank int, line []byte) error {
				if rank != resume+recorded {
					t.Errorf("resume %d: Record rank %d, want %d", resume, rank, resume+recorded)
				}
				if len(line) == 0 {
					t.Errorf("resume %d: Record rank %d: empty line", resume, rank)
				}
				recorded++
				return nil
			},
		})
		if err != nil {
			t.Fatalf("resume %d: %v", resume, err)
		}
		if recorded != sites-resume || rep.Streamed != sites-resume {
			t.Fatalf("resume %d: Record fired %d times and %d sites streamed, want %d", resume, recorded, rep.Streamed, sites-resume)
		}
		if want := bytes.Join(lines[resume:], nil); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("resume %d: output differs from the full run's ranks:\nresumed:\n%s\nfull:\n%s", resume, buf.Bytes(), want)
		}
	}
}

// TestPerClientTableStreamed: a streamed run keeps no sites, yet its
// per-client pass table is the batch run's.
func TestPerClientTableStreamed(t *testing.T) {
	cfg := Config{Sites: 16, Seed: 4, Vantages: 1, Concurrency: 4, Workers: 2}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := batch.Streamed - batch.Lost - batch.StreamedCompliant; bad == 0 {
		t.Fatal("seed draws no non-compliant site")
	}
	stream, err := RunStream(context.Background(), cfg, Stream{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := perClientTable(t, stream), perClientTable(t, batch); got != want {
		t.Errorf("streamed per-client table:\n%s\nbatch:\n%s", got, want)
	}
}

func perClientTable(t *testing.T, rep *Report) string {
	t.Helper()
	for _, table := range rep.Tables() {
		if table.Title == "per-client pass rate over non-compliant sites" {
			return table.String()
		}
	}
	t.Fatal("no per-client table")
	return ""
}
