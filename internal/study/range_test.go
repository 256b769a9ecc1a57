package study

import (
	"bytes"
	"context"
	"testing"
)

// TestStudyStreamRangeInvariance: a range-restricted run over [Resume, Limit)
// emits exactly the bytes ranks Resume..Limit-1 of a full run emit — the
// property the distributed coordinator leans on when leasing sub-ranges to
// workers. The concatenation of disjoint sub-range runs is byte-identical to
// one full run, including under chain reuse (slot sites) and dedup.
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

	// Three disjoint leases covering [0, sites), run out of order — each must
	// reproduce its slice of the full stream regardless of execution order.
	ranges := [][2]int{{9, 17}, {0, 9}, {17, sites}}
	parts := make(map[[2]int][]byte, len(ranges))
	sumStreamed := 0
	var recorded int
	for _, r := range ranges {
		var buf bytes.Buffer
		rep, err := RunStream(context.Background(), cfg, Stream{
			Out: &buf, Resume: r[0], Limit: r[1],
			Record: func(rank int, line []byte) error {
				if rank < r[0] || rank >= r[1] {
					t.Errorf("Record rank %d outside lease [%d, %d)", rank, r[0], r[1])
				}
				if len(line) == 0 {
					t.Errorf("Record rank %d: empty line", rank)
				}
				recorded++
				return nil
			},
		})
		if err != nil {
			t.Fatalf("range [%d, %d): %v", r[0], r[1], err)
		}
		parts[r] = append([]byte(nil), buf.Bytes()...)
		sumStreamed += rep.Streamed
	}
	if recorded != sites {
		t.Fatalf("Record hook fired %d times, want %d", recorded, sites)
	}
	if sumStreamed != fullRep.Streamed {
		t.Fatalf("sub-range Streamed sums to %d, full run %d", sumStreamed, fullRep.Streamed)
	}

	var combined []byte
	for _, r := range [][2]int{{0, 9}, {9, 17}, {17, sites}} {
		combined = append(combined, parts[r]...)
	}
	if !bytes.Equal(combined, full.Bytes()) {
		t.Fatalf("concatenated sub-range output differs from the full run:\ncombined:\n%s\nfull:\n%s", combined, full.Bytes())
	}
}

// TestReportTalliesRoundTrip: the wire tallies carry every additive
// aggregate, and merging the tallies of disjoint sub-ranges reproduces the
// full run's aggregate report.
func TestReportTalliesRoundTrip(t *testing.T) {
	cfg := Config{Sites: 12, Seed: 7, Vantages: 1, Concurrency: 4, Workers: 2}
	fullRep, err := RunStream(context.Background(), cfg, Stream{})
	if err != nil {
		t.Fatal(err)
	}

	merged := map[string]int64{}
	for _, r := range [][2]int{{0, 5}, {5, 12}} {
		rep, err := RunStream(context.Background(), cfg, Stream{Resume: r[0], Limit: r[1]})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rep.Tallies() {
			merged[k] += v
		}
	}
	got := ReportFromTallies(cfg, merged)
	if got.Streamed != fullRep.Streamed ||
		got.StreamedCompliant != fullRep.StreamedCompliant ||
		got.LeavesGenerated != fullRep.LeavesGenerated ||
		got.ScanErrors != fullRep.ScanErrors ||
		got.Lost != fullRep.Lost {
		t.Fatalf("merged tallies %+v differ from full report %+v", got, fullRep)
	}
}

// TestPerClientTableStreamed: a streamed run keeps no sites, yet its
// per-client pass table, and the table of the report merged from its
// leases' tallies, are the batch run's.
func TestPerClientTableStreamed(t *testing.T) {
	cfg := Config{Sites: 16, Seed: 4, Vantages: 1, Concurrency: 4, Workers: 2}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := batch.Streamed - batch.Lost - batch.StreamedCompliant; bad == 0 {
		t.Fatal("seed draws no non-compliant site")
	}
	want := perClientTable(t, batch)

	stream, err := RunStream(context.Background(), cfg, Stream{})
	if err != nil {
		t.Fatal(err)
	}
	merged := map[string]int64{}
	for _, r := range [][2]int{{0, 7}, {7, 16}} {
		rep, err := RunStream(context.Background(), cfg, Stream{Resume: r[0], Limit: r[1]})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rep.Tallies() {
			merged[k] += v
		}
	}
	for name, rep := range map[string]*Report{"streamed": stream, "merged tallies": ReportFromTallies(cfg, merged)} {
		if got := perClientTable(t, rep); got != want {
			t.Errorf("%s per-client table:\n%s\nbatch:\n%s", name, got, want)
		}
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
