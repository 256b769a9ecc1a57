package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalSurfacesWriteErrors: a journal whose appends fail (disk full,
// revoked fd) must report the failure from Flush/Close and from the
// write-through record appenders — not keep returning nil while the resume
// state silently stops advancing.
func TestJournalSurfacesWriteErrors(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "ckpt.journal"))
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd so every subsequent append fails.
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	j.Retire("grade.sink", 99)
	if err := j.Flush(); err == nil {
		t.Fatal("Flush reported success after a failed append")
	}
	if err := j.Anchor("grade", 7, 70, 80, "dd44", false); err == nil {
		t.Fatal("Anchor reported success after a failed append")
	}
	if err := j.RunRoot("grade", 8, 80, "ee55"); err == nil {
		t.Fatal("RunRoot reported success after a failed append")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close reported success after a failed append")
	}
}

// legacyLease is a lease-grant line as the distributed runs of older
// versions journaled it, among the watermarks and anchors.
const legacyLease = `{"stage":"lease","rank":249,"event":"grant","lease":1,"lo":125,"hi":250,"epoch":1}`

// TestJournalLeaseAndAnchorRecordsCoexist: a journal an older version wrote,
// with lease records among its watermarks and anchors, still resumes at the
// right rank and still yields its anchors.
func TestJournalLeaseAndAnchorRecordsCoexist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.journal")
	journal := strings.Join([]string{
		`{"stage":"lease","rank":124,"event":"grant","hi":125}`,
		legacyLease,
		`{"stage":"grade.sink","rank":63}`,
		`{"stage":"lease","rank":124,"event":"done","hi":125}`,
		`{"stage":"grade","rank":63,"event":"anchor","hi":64,"root":"aa"}`,
		`{"stage":"grade.sink","rank":127}`,
		`{"stage":"lease","rank":299,"event":"grant","lease":2,"lo":250,"hi":300}`,
		`{"stage":"grade","rank":127,"event":"runroot","hi":128,"batch":1,"root":"bb"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	j, resume, err := Checkpoint(path, "grade")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if resume != 128 {
		t.Fatalf("resume rank = %d, want 128 (lease records must not disturb watermarks)", resume)
	}
	if root, ok := j.AnchorRoot("grade", 0); !ok || root != "aa" {
		t.Fatalf("anchor of batch 0 = %q, %v", root, ok)
	}
	anchors, err := ReadAnchors(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) != 2 || anchors[0].Event != "anchor" || anchors[1].Event != "runroot" {
		t.Fatalf("anchors = %+v", anchors)
	}
}
