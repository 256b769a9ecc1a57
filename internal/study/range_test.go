package study

import (
	"bytes"
	"context"
	"testing"

	"chainchaos/internal/core"
	"chainchaos/internal/report"
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

// TestPerClientTableStreamed: the per-client table the sink tallies is the
// one recounted from the run's records.
func TestPerClientTableStreamed(t *testing.T) {
	rep, _, recs := runStudy(t, Config{Sites: 16, Seed: 4, Vantages: 1, Concurrency: 4, Workers: 2})
	passes, bad := map[string]int{}, 0
	for _, r := range recs {
		if !r.Scanned || r.Compliant {
			continue
		}
		bad++
		for name, ok := range r.Verdicts {
			if ok {
				passes[name]++
			}
		}
	}
	if bad == 0 {
		t.Fatal("seed draws no non-compliant site")
	}
	want := report.New("per-client pass rate over non-compliant sites", "Client", "Pass")
	for _, p := range core.Profiles {
		want.Add(p.Name, report.Count(passes[p.Name], bad))
	}
	if got := perClientTable(t, rep); got != want.String() {
		t.Errorf("per-client table:\n%s\nrecounted from the records:\n%s", got, want)
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
