package ledger

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainchaos/internal/pipeline"
)

// writeLedgeredRun produces an output file, sidecar, and journal the way a
// real run does: lines through a journal-anchored batcher, sealed.
func writeLedgeredRun(t testing.TB, dir string, n, size int) (outPath, journalPath, sidecarPath string) {
	t.Helper()
	outPath = filepath.Join(dir, "out.jsonl")
	journalPath = filepath.Join(dir, "ckpt.journal")
	sidecarPath = filepath.Join(dir, "out.leaves")

	j, err := pipeline.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	side, err := os.Create(sidecarPath)
	if err != nil {
		t.Fatal(err)
	}
	b := JournalBatcher(j, "grade", size, 0, nil, side)
	for _, l := range lines(n) {
		if _, err := out.Write(append(l, '\n')); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Seal(b, j, "grade"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []interface{ Close() error }{out, side, j} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return outPath, journalPath, sidecarPath
}

func TestVerifyFileCleanRun(t *testing.T) {
	dir := t.TempDir()
	out, journal, side := writeLedgeredRun(t, dir, 137, 10)
	rep, err := VerifyFile(out, 0, journal, "grade", side)
	if err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
	if rep.Lines != 137 || rep.Batches != 14 || rep.Tail != 0 || rep.RunRoot == "" {
		t.Fatalf("report = %+v", rep)
	}
	// Without the sidecar it still verifies.
	if _, err := VerifyFile(out, 0, journal, "grade", ""); err != nil {
		t.Fatalf("sidecar-less verification failed: %v", err)
	}
}

// TestVerifyFileSingleBitCorruption is the property the ledger exists for:
// flip any single bit of any record line and verification must fail, naming
// the exact rank when the sidecar is present.
func TestVerifyFileSingleBitCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	out, journal, side := writeLedgeredRun(t, dir, 137, 10)
	pristine, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lineStarts := []int{0}
	for i, c := range pristine {
		if c == '\n' && i+1 < len(pristine) {
			lineStarts = append(lineStarts, i+1)
		}
	}
	for trial := 0; trial < 40; trial++ {
		rank := rng.Intn(len(lineStarts))
		start := lineStarts[rank]
		end := bytes.IndexByte(pristine[start:], '\n') + start
		corrupt := append([]byte(nil), pristine...)
		corrupt[start+rng.Intn(end-start)] ^= byte(1 << uint(rng.Intn(7))) // never the newline, never bit 7 of it
		if bytes.Equal(corrupt, pristine) {
			continue
		}
		if err := os.WriteFile(out, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, verr := VerifyFile(out, 0, journal, "grade", side)
		var tamper *TamperError
		if !errors.As(verr, &tamper) {
			t.Fatalf("trial %d: corruption at rank %d not detected: %v", trial, rank, verr)
		}
		if tamper.Rank != rank {
			t.Fatalf("trial %d: corrupted rank %d, verifier named %d (%s)", trial, rank, tamper.Rank, tamper.Detail)
		}
		// Without the sidecar: still detected, batch named.
		_, verr = VerifyFile(out, 0, journal, "grade", "")
		if !errors.As(verr, &tamper) {
			t.Fatalf("trial %d: sidecar-less verification missed corruption", trial)
		}
		if tamper.Batch != rank/10 {
			t.Fatalf("trial %d: batch %d named, want %d", trial, tamper.Batch, rank/10)
		}
	}
	if err := os.WriteFile(out, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(out, 0, journal, "grade", side); err != nil {
		t.Fatalf("restored file fails: %v", err)
	}
}

func TestVerifyFileTruncationAndExtension(t *testing.T) {
	dir := t.TempDir()
	out, journal, side := writeLedgeredRun(t, dir, 50, 10)
	pristine, _ := os.ReadFile(out)

	cut := bytes.LastIndexByte(pristine[:len(pristine)-1], '\n')
	if err := os.WriteFile(out, pristine[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}
	var tamper *TamperError
	if _, err := VerifyFile(out, 0, journal, "grade", side); !errors.As(err, &tamper) {
		t.Fatalf("truncation not detected: %v", err)
	}

	extended := append(append([]byte(nil), pristine...), []byte("{\"rank\":50}\n")...)
	if err := os.WriteFile(out, extended, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(out, 0, journal, "grade", side); !errors.As(err, &tamper) {
		t.Fatalf("appended line not detected: %v", err)
	}
}

// TestVerifyFileInterruptedRun: no runroot, an open-batch tail — legitimate
// for a crashed run, so it verifies with the tail reported, and corruption
// inside the anchored prefix is still caught.
func TestVerifyFileInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.jsonl")
	journalPath := filepath.Join(dir, "ckpt.journal")
	j, err := pipeline.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := os.Create(outPath)
	b := JournalBatcher(j, "grade", 10, 0, nil, nil)
	for _, l := range lines(27) {
		out.Write(append(l, '\n')) //nolint:errcheck
		if err := b.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Seal, no Close.
	out.Close()
	j.Close()

	rep, err := VerifyFile(outPath, 0, journalPath, "grade", "")
	if err != nil {
		t.Fatalf("interrupted run failed verification: %v", err)
	}
	if rep.Batches != 2 || rep.Tail != 7 || rep.RunRoot != "" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestProveInclusionFromFile(t *testing.T) {
	dir := t.TempDir()
	out, journal, _ := writeLedgeredRun(t, dir, 137, 10)
	anchors, err := pipeline.ReadAnchors(journal)
	if err != nil {
		t.Fatal(err)
	}
	var rec *pipeline.AnchorRecord
	for i := range anchors {
		if anchors[i].Event == "anchor" && anchors[i].Batch == 3 {
			rec = &anchors[i]
		}
	}
	if rec == nil {
		t.Fatal("no anchor for batch 3")
	}
	leaves, err := ReadLeafRange(out, 0, rec.Lo, rec.Hi)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := ParseHash(rec.Root)
	for i, leaf := range leaves {
		proof := InclusionProof(leaves, i)
		if !VerifyInclusion(root, len(leaves), i, leaf, proof) {
			t.Fatalf("rank %d: proof does not verify against anchored root", rec.Lo+i)
		}
	}
}

func TestJournalAnchorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.journal")
	j, err := pipeline.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Retire("grade.sink", 5)
	if err := j.Anchor("grade", 0, 0, 10, "aa11", false); err != nil {
		t.Fatal(err)
	}
	if err := j.Anchor("grade", 1, 10, 13, "bb22", true); err != nil {
		t.Fatal(err)
	}
	if err := j.RunRoot("grade", 2, 13, "cc33"); err != nil {
		t.Fatal(err)
	}
	// Duplicate identical final anchor: dropped. Conflicting: rejected.
	if err := j.Anchor("grade", 0, 0, 10, "aa11", false); err != nil {
		t.Fatal(err)
	}
	if err := j.Anchor("grade", 0, 0, 10, "ffff", false); err == nil {
		t.Fatal("conflicting anchor accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := pipeline.ReadAnchors(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records: %+v", len(recs), recs)
	}
	want := []pipeline.AnchorRecord{
		{Stage: "grade", Event: "anchor", Batch: 0, Lo: 0, Hi: 10, Root: "aa11"},
		{Stage: "grade", Event: "anchor", Batch: 1, Lo: 10, Hi: 13, Root: "bb22", Partial: true},
		{Stage: "grade", Event: "runroot", Batch: 2, Lo: 0, Hi: 13, Root: "cc33"},
	}
	for i, w := range want {
		if recs[i] != w {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}

	// Reopening loads final anchors for the Known hook; the watermark survives.
	j2, err := pipeline.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if root, ok := j2.AnchorRoot("grade", 0); !ok || root != "aa11" {
		t.Fatalf("AnchorRoot = %q, %v", root, ok)
	}
	if _, ok := j2.AnchorRoot("grade", 1); ok {
		t.Fatal("partial anchor loaded as final")
	}
	if got := j2.Last("grade.sink"); got != 5 {
		t.Fatalf("Last = %d, want 5", got)
	}
}

// invertedAnchor is a partial anchor whose span ends before it starts.
var invertedAnchor = `{"stage":"grade","event":"anchor","batch":0,"lo":5,"hi":3,"partial":true,"root":"` + strings.Repeat("0", 64) + `"}` + "\n"

// TestVerifyFileRejectsInvalidAnchors: an anchor with a negative batch, a
// negative leaf or an inverted span is an inconsistent journal, reported as
// an error rather than a panic or a tamper verdict.
func TestVerifyFileRejectsInvalidAnchors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(out, []byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := strings.Repeat("0", 64)
	for name, rec := range map[string]string{
		"inverted partial": invertedAnchor,
		"inverted final":   `{"stage":"grade","event":"anchor","batch":0,"lo":3,"hi":1,"root":"` + root + `"}` + "\n",
		"negative batch":   `{"stage":"grade","event":"anchor","batch":-1,"lo":0,"hi":3,"root":"` + root + `"}` + "\n",
		"negative leaf":    `{"stage":"grade","event":"anchor","batch":0,"lo":-3,"hi":3,"partial":true,"root":"` + root + `"}` + "\n",
		"negative runroot": `{"stage":"grade","event":"runroot","batch":-2,"lo":0,"hi":3,"root":"` + root + `"}` + "\n",
	} {
		journal := filepath.Join(dir, "j.ckpt")
		if err := os.WriteFile(journal, []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyFile(out, 0, journal, "grade", "")
		var tamper *TamperError
		if err == nil || errors.As(err, &tamper) || !strings.Contains(err.Error(), "inconsistent anchors") {
			t.Errorf("%s: err = %v, want an inconsistent-anchors error", name, err)
		}
	}
}

// FuzzVerifyFile: whatever bytes the output file, the journal and the
// sidecar hold, VerifyFile answers with a report or an error, with the
// sidecar and without it, and never panics.
func FuzzVerifyFile(f *testing.F) {
	outPath, journalPath, sidePath := writeLedgeredRun(f, f.TempDir(), 23, 5)
	var valid [3][]byte
	for i, p := range []string{outPath, journalPath, sidePath} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		valid[i] = data
	}
	f.Add(valid[0], valid[1], valid[2])
	f.Add([]byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n"), []byte(invertedAnchor), []byte(nil))
	// One set of files per fuzzing process, rewritten by each input: the
	// inputs of one process run one at a time.
	dir := f.TempDir()
	paths := [3]string{filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "j.ckpt"), filepath.Join(dir, "out.leaves")}
	f.Fuzz(func(t *testing.T, out, journal, sidecar []byte) {
		for i, data := range [][]byte{out, journal, sidecar} {
			if err := os.WriteFile(paths[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, side := range []string{"", paths[2]} {
			if rep, err := VerifyFile(paths[0], 0, paths[1], "grade", side); err == nil && rep == nil {
				t.Fatal("VerifyFile returned neither a report nor an error")
			}
		}
	})
}
