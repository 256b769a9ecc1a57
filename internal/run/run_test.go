package run

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainchaos/internal/ledger"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

const (
	total     = 300
	batchSize = 16
)

// testJob is the record stream a test run emits: a sparse stream emits a
// record for every third rank only.
type testJob struct {
	Sparse bool
}

// line is rank's record, or nil when a sparse stream has none for it. The
// rank field is 1-based, like the verdict JSONL's.
func (j testJob) line(rank int) []byte {
	if j.Sparse && rank%3 != 0 {
		return nil
	}
	return []byte(fmt.Sprintf(`{"rank":%d,"v":%d}`, rank+1, rank*rank+7))
}

func lineRank(line []byte) (int, bool) {
	var rec struct {
		Rank int `json:"rank"`
	}
	if json.Unmarshal(line, &rec) != nil || rec.Rank < 1 {
		return 0, false
	}
	return rec.Rank - 1, true
}

var errCrash = errors.New("simulated crash")

// feed runs ranks [o.Resume, total) of j through a pipeline into o, as a
// command does: the sink hands each retired rank's record to o.Emit, then
// the pipeline retires the rank through the journal. The sink fails at rank
// crashAt (a kill -9 mid-run when crashAt >= 0). It returns how many ranks
// the sink emitted.
func feed(o *Output, stage string, j testJob, crashAt int) (int, error) {
	emitted := 0
	src := pipeline.From(context.Background(), pipeline.Options{Journal: o.Journal, Resume: o.Resume}, stage, 0,
		func(rank int) ([]byte, bool, error) { return j.line(rank), rank < total, nil })
	err := src.Drain(func(rank int, line []byte) error {
		if rank == crashAt {
			return errCrash
		}
		emitted++
		return o.Emit(rank, line)
	})
	return emitted, err
}

// want is an uninterrupted run's out-file, sidecar and ledger run root.
func want(t *testing.T, j testJob, header []string) (out, sidecar string, root ledger.Hash) {
	t.Helper()
	var o, side strings.Builder
	for _, h := range header {
		o.WriteString(h + "\n")
	}
	b := &ledger.Batcher{Size: batchSize, Sidecar: &side}
	for rank := 0; rank < total; rank++ {
		if line := j.line(rank); line != nil {
			o.Write(append(line, '\n'))
			if err := b.Append(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	root, _, err := b.Close()
	if err != nil {
		t.Fatal(err)
	}
	return o.String(), side.String(), root
}

// check compares a finished run's files with an uninterrupted run and
// audits the out-file against its journal.
func check(t *testing.T, r Records, sidecar string, j testJob) {
	t.Helper()
	wantOut, wantSide, wantRoot := want(t, j, r.Header)
	for path, want := range map[string]string{r.Out: wantOut, sidecar: wantSide} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%s differs from an uninterrupted run (%d vs %d bytes)", filepath.Base(path), len(got), len(want))
		}
	}
	rep, err := ledger.VerifyFile(r.Out, len(r.Header), r.Checkpoint, r.Stage, sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunRoot != ledger.HexHash(wantRoot) {
		t.Fatalf("run root %s, want %s", rep.RunRoot, ledger.HexHash(wantRoot))
	}
}

func testCLI(dir string) *obs.CLI {
	return &obs.CLI{Prog: "test", Metrics: obs.NewRegistry(), LedgerBatch: batchSize, LedgerSidecar: filepath.Join(dir, "leaves")}
}

// TestRecordPath: dense, sparse and header-line streams each match an
// uninterrupted run in bytes and run root — fresh, resumed after a torn
// trailing line, and resumed with the out-file ahead of the journal's
// watermark (which the journal writes every 64 ranks).
func TestRecordPath(t *testing.T) {
	formats := []struct {
		name string
		job  testJob
		r    Records
	}{
		{"dense", testJob{}, Records{Stage: "dense"}},
		{"sparse", testJob{Sparse: true}, Records{Stage: "sparse", Rank: lineRank}},
		{"header", testJob{}, Records{Stage: "tsv", Header: []string{"rank\tv", "# second"}}},
	}
	cases := []struct {
		name    string
		crashAt int    // -1: no crash
		torn    string // appended to the out-file after the crash
	}{
		{"fresh", -1, ""},
		{"torn", 128, `{"rank":129,"v`},
		{"ahead", 100, ""},
	}
	for _, f := range formats {
		for _, c := range cases {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				cli := testCLI(dir)
				r := f.r
				r.Out, r.Checkpoint = filepath.Join(dir, "out"), filepath.Join(dir, "ckpt")
				if c.crashAt >= 0 {
					o, err := Open(cli, r)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := feed(o, r.Stage, f.job, c.crashAt); !errors.Is(err, errCrash) {
						t.Fatalf("crash run: %v", err)
					}
					// A kill -9 flushes nothing: the journal keeps only its
					// cadence watermarks. Only the descriptors are released.
					o.file.Close()
					o.sidecar.Close()
					tf, err := os.OpenFile(r.Out, os.O_WRONLY|os.O_APPEND, 0)
					if err != nil {
						t.Fatal(err)
					}
					tf.WriteString(c.torn)
					tf.Close()
				}
				o, err := Open(cli, r)
				if err != nil {
					t.Fatal(err)
				}
				if c.crashAt >= 0 && (o.Resume == 0 || o.Resume > c.crashAt) {
					t.Fatalf("resume rank %d after a crash at %d", o.Resume, c.crashAt)
				}
				emitted, err := feed(o, r.Stage, f.job, -1)
				if err == nil {
					err = o.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				if emitted != total-o.Resume {
					t.Fatalf("emitted %d ranks, want %d", emitted, total-o.Resume)
				}
				check(t, r, cli.LedgerSidecar, f.job)
			})
		}
	}
}

// TestSidecarNeedsItsFlags: a -ledger-sidecar the run could never write is
// an error naming the missing flag, before any file is touched.
func TestSidecarNeedsItsFlags(t *testing.T) {
	divfuzz := Records{Stage: "divergence", outFlag: "records", checkpointFlag: "records-journal"}
	cases := []struct {
		name      string
		r         Records
		out, ckpt bool
		want      string
	}{
		{"study -out, no -checkpoint", Records{Stage: "grade"}, true, false, "requires -checkpoint"},
		{"study -checkpoint to stdout", Records{Stage: "grade"}, false, true, "requires -out"},
		{"experiments -run d1", Records{Stage: "verdict", Rank: lineRank}, false, false, "requires -checkpoint"},
		{"divfuzz -records, no journal", divfuzz, true, false, "requires -records-journal"},
		{"divfuzz -records-journal, no records", divfuzz, false, true, "requires -records ("},
		{"study ledgered", Records{Stage: "grade"}, true, true, ""},
		{"experiments ledgered", Records{Stage: "verdict", Rank: lineRank}, true, true, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cli := testCLI(dir)
			r := c.r
			if c.out {
				r.Out = filepath.Join(dir, "out")
			}
			if c.ckpt {
				r.Checkpoint = filepath.Join(dir, "ckpt")
			}
			err := r.check(cli)
			if c.want == "" {
				if err != nil {
					t.Fatalf("rejected a writable sidecar: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if _, err := Open(cli, r); err == nil {
				t.Fatal("Open accepted the sidecar")
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Fatalf("Open touched %d files before rejecting the flags", len(entries))
			}
		})
	}
}

// TestWhereRecordsGo: without an out-file a dense stream goes to stdout and
// a sparse one nowhere.
func TestWhereRecordsGo(t *testing.T) {
	cli := &obs.CLI{Prog: "test", Metrics: obs.NewRegistry()}
	dense, err := Open(cli, Records{Stage: "dense"})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Open(cli, Records{Stage: "sparse", Rank: lineRank})
	if err != nil {
		t.Fatal(err)
	}
	if dense.w != os.Stdout || sparse.w != nil {
		t.Fatalf("dense records go to %v, sparse to %v", dense.w, sparse.w)
	}
}

// TestWriteErrorsFail: a full disk fails the run instead of losing records.
func TestWriteErrorsFail(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	cli := &obs.CLI{Prog: "test", Metrics: obs.NewRegistry()}
	o, err := Open(cli, Records{Stage: "tsv", Header: []string{"h"}, Out: "/dev/full"})
	if err == nil {
		err = o.Close()
	}
	if err == nil {
		t.Fatal("a header written to /dev/full did not fail")
	}
	o, err = Open(cli, Records{Stage: "dense", Out: "/dev/full"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feed(o, "dense", testJob{}, -1); err == nil {
		t.Fatal("records written to /dev/full did not fail")
	}
	o.Close() //nolint:errcheck
}
