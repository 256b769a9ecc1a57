package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzOpenJournal: any journal bytes either fail to open or load, per
// stage, exactly the largest non-negative rank among the lines that decode
// as watermarks (-1 when there is none) — so Checkpoint never resumes below
// rank 0.
func FuzzOpenJournal(f *testing.F) {
	for _, seed := range []string{
		"",
		`{"stage":"work.sink","rank":2}` + "\n",
		`{"stage":"sink","rank":0}` + "\n" + `{"stage":"sink","rank":1}` + "\n" + `{"stage":"sink","ra`,
		`{"stage":"grade.sink","rank":-7}` + "\n" + `{"stage":"grade","rank":3}` + "\n",
		`{"stage":"lease","rank":9,"event":"grant","lease":1,"lo":0,"hi":10,"epoch":1}` + "\n",
		`{"stage":"grade.sink","rank":63,"event":"anchor","batch":0,"lo":0,"hi":64,"root":"ab"}` + "\n",
		`{"stage":"grade.sink","rank":63}` + "\n" + legacyLease + "\n" +
			`{"stage":"grade","rank":63,"event":"anchor","hi":64,"root":"ab"}` + "\n" + `{"stage":"grade.sink","rank":127}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return // a line past the reader's limit
		}
		defer j.Close()
		want := map[string]int{}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var e journalEntry
			if json.Unmarshal(line, &e) != nil {
				continue
			}
			if _, ok := want[e.Stage]; !ok {
				want[e.Stage] = -1
			}
			if e.Event == "" && e.Rank > want[e.Stage] {
				want[e.Stage] = e.Rank
			}
		}
		for stage, rank := range want {
			if got := j.Last(stage); got != rank {
				t.Fatalf("Last(%q) = %d, want %d", stage, got, rank)
			}
		}
	})
}

// FuzzRecoverOutput: for any out-file bytes, sink watermark and header of
// 0-2 lines, dense or sparse, RecoverOutput resumes within [0, watermark+1]
// and leaves the file empty or a prefix of itself that ends at a newline.
// A dense file that resumes past 0 keeps exactly header + resume lines; a
// sparse one keeps only records ranked below the resume point.
func FuzzRecoverOutput(f *testing.F) {
	rec := func(rank string) string { return `{"rank":` + rank + "}\n" }
	for _, seed := range []struct {
		content   string
		watermark int16
		header    uint8
		sparse    bool
	}{
		{"r0\nr1\nr2\nr3\nr4\nr5\ntorn", 2, 0, false},
		{"r0\nr1\n", 9, 0, false},
		{"col1\tcol2\nr0\nr1\nr2\n", 1, 1, false},
		{"col1\tcol2\nr0", -1, 1, false},
		{rec("1") + rec("4") + rec("8"), 6, 0, true},
		{rec("0") + "garbage\n" + rec("2"), 5, 0, true},
	} {
		f.Add([]byte(seed.content), seed.watermark, seed.header, seed.sparse)
	}
	rankOf := func(line []byte) (int, bool) {
		var r struct {
			Rank *int `json:"rank"`
		}
		if json.Unmarshal(line, &r) != nil || r.Rank == nil {
			return 0, false
		}
		return *r.Rank, true
	}
	f.Fuzz(func(t *testing.T, content []byte, watermark int16, header uint8, sparse bool) {
		wm, h := max(int(watermark), -1), int(header%3)
		var ranks func([]byte) (int, bool)
		if sparse {
			ranks = rankOf
		}
		resume, after := recoverFixture(t, string(content), wm, h, ranks)
		if resume < 0 || resume > wm+1 {
			t.Fatalf("resume %d outside [0, %d]", resume, wm+1)
		}
		if after != "" && (!strings.HasPrefix(string(content), after) || !strings.HasSuffix(after, "\n")) {
			t.Fatalf("kept %q: not a newline-terminated prefix of %q", after, content)
		}
		lines := strings.SplitAfter(after, "\n")
		lines = lines[:len(lines)-1] // after ends at a newline: drop the empty tail
		if !sparse && resume > 0 && len(lines) != h+resume {
			t.Fatalf("dense file kept %d lines, want header %d + resume %d", len(lines), h, resume)
		}
		if sparse {
			for _, line := range lines[min(h, len(lines)):] {
				if r, ok := rankOf([]byte(strings.TrimSuffix(line, "\n"))); !ok || r >= resume {
					t.Fatalf("sparse file kept record %q at resume %d", line, resume)
				}
			}
		}
	})
}
