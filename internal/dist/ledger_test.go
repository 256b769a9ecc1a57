package dist

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"chainchaos/internal/ledger"
	"chainchaos/internal/pipeline"
)

// referenceAnchors is what a single-process batcher journals for the dense
// test stream: the invariant every distributed configuration must hit.
func referenceAnchors(t *testing.T, total, size int) ([]ledger.Anchor, ledger.Hash) {
	t.Helper()
	var anchors []ledger.Anchor
	b := &ledger.Batcher{Size: size, Emit: func(a ledger.Anchor) error { anchors = append(anchors, a); return nil }}
	for rank := 0; rank < total; rank++ {
		if err := b.Append(testLine(rank)); err != nil {
			t.Fatal(err)
		}
	}
	root, _, err := b.Close()
	if err != nil {
		t.Fatal(err)
	}
	return anchors, root
}

func readFinalAnchors(t *testing.T, path, stage string) ([]pipeline.AnchorRecord, *pipeline.AnchorRecord) {
	t.Helper()
	recs, err := pipeline.ReadAnchors(path)
	if err != nil {
		t.Fatal(err)
	}
	var finals []pipeline.AnchorRecord
	var runroot *pipeline.AnchorRecord
	for i, r := range recs {
		if r.Stage != stage || r.Partial {
			continue
		}
		if r.Event == "runroot" {
			runroot = &recs[i]
			continue
		}
		finals = append(finals, r)
	}
	return finals, runroot
}

// TestLedgerRootInvariance: 1-, 4-, and 8-worker runs must journal exactly
// the anchor sequence a serial batcher over the same lines produces — same
// batches, same roots, same order, same run root.
func TestLedgerRootInvariance(t *testing.T) {
	const total, size = 1000, 64
	wantAnchors, wantRoot := referenceAnchors(t, total, size)

	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt")
		outPath := filepath.Join(dir, "out.jsonl")
		sidePath := filepath.Join(dir, "out.leaves")
		j, err := pipeline.OpenJournal(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(outPath)
		if err != nil {
			t.Fatal(err)
		}
		side, err := os.Create(sidePath)
		if err != nil {
			t.Fatal(err)
		}
		folder := ledger.JournalFolder(j, "test", size, side)
		launcher := &pipeLauncher{setup: plainSetup(testRunner(1))}
		if _, err := Run(context.Background(), Config{
			Workers: workers, Total: total, LeaseSize: 37, Out: out,
			Journal: j, SinkStage: "test", Launch: launcher, Ledger: folder,
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		root, leaves, err := ledger.SealFolder(folder, j, "test", total)
		if err != nil {
			t.Fatalf("workers=%d: seal: %v", workers, err)
		}
		out.Close()
		side.Close()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		launcher.wg.Wait()

		if leaves != total || root != wantRoot {
			t.Fatalf("workers=%d: run root diverges from serial batcher", workers)
		}
		finals, runroot := readFinalAnchors(t, ckpt, "test")
		if len(finals) != len(wantAnchors) {
			t.Fatalf("workers=%d: %d anchors, want %d", workers, len(finals), len(wantAnchors))
		}
		for i, w := range wantAnchors {
			got := finals[i]
			if got.Batch != w.Batch || got.Lo != w.Lo || got.Hi != w.Hi || got.Root != ledger.HexHash(w.Root) {
				t.Fatalf("workers=%d: anchor %d = %+v, want %+v", workers, i, got, w)
			}
		}
		if runroot == nil || runroot.Root != ledger.HexHash(wantRoot) {
			t.Fatalf("workers=%d: runroot record missing or wrong", workers)
		}

		// End-to-end: the auditor accepts the run, sidecar and all.
		rep, err := ledger.VerifyFile(outPath, 0, ckpt, "test", sidePath)
		if err != nil {
			t.Fatalf("workers=%d: verify: %v", workers, err)
		}
		if rep.Lines != total || rep.Tail != 0 || rep.RunRoot == "" {
			t.Fatalf("workers=%d: report = %+v", workers, rep)
		}
	}
}

// TestLedgerCrashResumeReanchors: a run that dies mid-stream resumes and
// completes with each batch anchored exactly once, byte-identically to an
// uninterrupted run — already-journaled anchors are verified, not re-emitted.
func TestLedgerCrashResumeReanchors(t *testing.T) {
	const total, size = 500, 64
	wantAnchors, wantRoot := referenceAnchors(t, total, size)

	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.jsonl")
	sidePath := filepath.Join(dir, "out.leaves")
	ckpt := filepath.Join(dir, "ckpt")

	// First run: the sink fails after 123 lines (coordinator crash stand-in).
	f, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	side, err := os.Create(sidePath)
	if err != nil {
		t.Fatal(err)
	}
	j, err := pipeline.OpenJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	folder := ledger.JournalFolder(j, "test", size, side)
	launcher := &pipeLauncher{setup: plainSetup(testRunner(1))}
	if _, err := Run(context.Background(), Config{
		Workers: 3, Total: total, LeaseSize: 40,
		Out:     &failingWriter{w: f, failAfter: 123},
		Journal: j, SinkStage: "test", Launch: launcher, Ledger: folder,
	}); err == nil {
		t.Fatal("expected the first run to fail at the broken sink")
	}
	f.Close()
	side.Close()
	j.Close()
	launcher.wg.Wait()

	// Resume exactly like cmd/study does: checkpoint, reconcile the output,
	// rebuild the sidecar, replay the recovered lines through the folder.
	j2, resume, err := pipeline.Checkpoint(ckpt, "test")
	if err != nil {
		t.Fatal(err)
	}
	resume, err = pipeline.RecoverOutput(outPath, 0, j2, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resume == 0 || resume > 123 {
		t.Fatalf("resume rank %d, want in (0, 123]", resume)
	}
	side2, err := os.Create(sidePath) // truncate; the replay regenerates it
	if err != nil {
		t.Fatal(err)
	}
	folder2 := ledger.JournalFolder(j2, "test", size, side2)
	if err := ledger.Replay(folder2, outPath, 0, resume); err != nil {
		t.Fatal(err)
	}
	f2, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	launcher2 := &pipeLauncher{setup: plainSetup(testRunner(1))}
	if _, err := Run(context.Background(), Config{
		Workers: 3, Resume: resume, Total: total, LeaseSize: 40,
		Out: f2, Journal: j2, SinkStage: "test", Launch: launcher2, Ledger: folder2,
	}); err != nil {
		t.Fatal(err)
	}
	root, _, err := ledger.SealFolder(folder2, j2, "test", total)
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()
	side2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	launcher2.wg.Wait()

	if root != wantRoot {
		t.Fatal("resumed run root diverges from uninterrupted run")
	}
	finals, runroot := readFinalAnchors(t, ckpt, "test")
	if len(finals) != len(wantAnchors) {
		for _, a := range finals {
			t.Logf("anchor: %+v", a)
		}
		t.Fatalf("%d final anchors journaled, want %d (each exactly once)", len(finals), len(wantAnchors))
	}
	for i, w := range wantAnchors {
		if finals[i].Batch != w.Batch || finals[i].Root != ledger.HexHash(w.Root) {
			t.Fatalf("anchor %d: %+v, want batch %d root %s", i, finals[i], w.Batch, ledger.HexHash(w.Root))
		}
	}
	if runroot == nil || runroot.Root != ledger.HexHash(wantRoot) {
		t.Fatal("runroot record missing or wrong after resume")
	}
	if rep, err := ledger.VerifyFile(outPath, 0, ckpt, "test", sidePath); err != nil || rep.Lines != total {
		t.Fatalf("verify after resume: %+v, %v", rep, err)
	}
}
