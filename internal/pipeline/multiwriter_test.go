package pipeline

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestJournalConcurrentAppenders: several Journal handles open on the same
// path append concurrently without tearing lines — every handle's final
// watermark is recoverable, and every line in the file parses.
func TestJournalConcurrentAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.ckpt")
	const writers = 4
	const ranks = 300

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Every = 1 // every retirement appends: maximal interleaving
		wg.Add(1)
		go func(w int, j *Journal) {
			defer wg.Done()
			stage := "stage" + string(rune('A'+w))
			for r := 0; r <= ranks; r++ {
				j.Retire(stage, r)
			}
			if err := j.Close(); err != nil {
				t.Errorf("writer %d: close: %v", w, err)
			}
		}(w, j)
	}
	wg.Wait()

	// No torn lines: every byte of the file is valid JSONL.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d torn: %q", i, line)
		}
	}

	// Every stage's watermark survived the interleaving.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for w := 0; w < writers; w++ {
		stage := "stage" + string(rune('A'+w))
		if got := j.Last(stage); got != ranks {
			t.Fatalf("stage %s watermark = %d, want %d", stage, got, ranks)
		}
	}
}
