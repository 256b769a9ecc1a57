package ledger

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chainchaos/internal/faults"
)

func lines(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"rank":%d,"verdict":"ok"}`, i))
	}
	return out
}

func TestBatcherAnchorsMatchDirectRoots(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		var got []Anchor
		b := &Batcher{Size: 8, Emit: func(a Anchor) error { got = append(got, a); return nil }}
		all := lines(n)
		for _, l := range all {
			if err := b.Append(l); err != nil {
				t.Fatal(err)
			}
		}
		runRoot, leaves, err := b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if leaves != n {
			t.Fatalf("n=%d: Close reports %d leaves", n, leaves)
		}
		wantBatches := (n + 7) / 8
		if len(got) != wantBatches {
			t.Fatalf("n=%d: %d anchors, want %d", n, len(got), wantBatches)
		}
		var roots []Hash
		for bi, a := range got {
			lo, hi := bi*8, (bi+1)*8
			if hi > n {
				hi = n
			}
			if a.Batch != bi || a.Lo != lo || a.Hi != hi || a.Partial {
				t.Fatalf("n=%d: anchor %+v, want batch %d [%d,%d)", n, a, bi, lo, hi)
			}
			if want := RootOf(hashLeaves(all[lo:hi])); a.Root != want {
				t.Fatalf("n=%d batch %d: root mismatch", n, bi)
			}
			roots = append(roots, a.Root)
		}
		if runRoot != RunRoot(roots) {
			t.Fatalf("n=%d: run root mismatch", n)
		}
	}
}

func TestBatcherLatencyFlushEmitsPartials(t *testing.T) {
	clock := faults.NewFakeClock(time.Unix(100, 0))
	var got []Anchor
	b := &Batcher{Size: 100, MaxLatency: time.Second, Clock: clock,
		Emit: func(a Anchor) error { got = append(got, a); return nil }}
	all := lines(10)
	for i, l := range all {
		if i == 5 {
			clock.Advance(2 * time.Second)
		}
		if err := b.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 || !got[0].Partial || got[0].Lo != 0 || got[0].Hi != 5 {
		t.Fatalf("partials = %+v, want one partial [0,5)", got)
	}
	if got[0].Root != RootOf(hashLeaves(all[:5])) {
		t.Fatal("partial root mismatch")
	}
	// Close supersedes the partial with a final anchor over all 10 leaves.
	if _, _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	last := got[len(got)-1]
	if last.Partial || last.Lo != 0 || last.Hi != 10 {
		t.Fatalf("final anchor = %+v", last)
	}
}

// TestBatcherReplayResume models kill-and-resume: a run dies mid-stream, the
// survivor replays the recovered lines with the dead run's anchors as Known,
// and the union of emitted anchors must be exactly the uninterrupted run's —
// each anchor journaled once, byte-identically.
func TestBatcherReplayResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := lines(137)
	for trial := 0; trial < 20; trial++ {
		cut := rng.Intn(len(all) + 1)

		journal := map[int]Hash{} // batch -> root, as the journal would hold
		emit := func(a Anchor) error {
			if prev, ok := journal[a.Batch]; ok && prev != a.Root {
				return fmt.Errorf("batch %d re-anchored differently", a.Batch)
			}
			journal[a.Batch] = a.Root
			return nil
		}
		known := func(batch int) (Hash, bool) { h, ok := journal[batch]; return h, ok }

		first := &Batcher{Size: 10, Emit: emit, Known: known}
		for _, l := range all[:cut] {
			if err := first.Append(l); err != nil {
				t.Fatal(err)
			}
		}
		// Crash: no Close. The resumed run replays the recovered prefix.
		emitted := 0
		second := &Batcher{Size: 10, Known: known, Emit: func(a Anchor) error {
			if _, ok := journal[a.Batch]; ok {
				t.Fatalf("cut=%d: batch %d re-emitted", cut, a.Batch)
			}
			emitted++
			return emit(a)
		}}
		for _, l := range all[:cut] {
			if err := second.Append(l); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range all[cut:] {
			if err := second.Append(l); err != nil {
				t.Fatal(err)
			}
		}
		runRoot, leaves, err := second.Close()
		if err != nil {
			t.Fatal(err)
		}
		if leaves != len(all) {
			t.Fatalf("cut=%d: %d leaves", cut, leaves)
		}

		// Reference: one uninterrupted run.
		ref := map[int]Hash{}
		direct := &Batcher{Size: 10, Emit: func(a Anchor) error { ref[a.Batch] = a.Root; return nil }}
		for _, l := range all {
			direct.Append(l) //nolint:errcheck
		}
		refRoot, _, _ := direct.Close()
		if len(journal) != len(ref) || runRoot != refRoot {
			t.Fatalf("cut=%d: resumed anchors diverge from uninterrupted run", cut)
		}
		for b, r := range ref {
			if journal[b] != r {
				t.Fatalf("cut=%d: batch %d root differs", cut, b)
			}
		}
	}
}

func TestBatcherDivergenceDetected(t *testing.T) {
	journal := map[int]Hash{0: LeafHash([]byte("not the real root"))}
	b := &Batcher{Size: 4, Known: func(batch int) (Hash, bool) { h, ok := journal[batch]; return h, ok }}
	var err error
	for _, l := range lines(4) {
		if err = b.Append(l); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("err = %v, want divergence", err)
	}
}

func TestReplayFeedsRecoveredLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	if err := os.WriteFile(path, []byte("h1\tcol\nr0\nr1\nr2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The sidecar lists the leaf hash of every line the batcher was fed.
	var fed strings.Builder
	b := &Batcher{Sidecar: &fed}
	if err := Replay(b, path, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if want := HexHash(LeafHash([]byte("r0"))) + "\n" + HexHash(LeafHash([]byte("r1"))) + "\n"; fed.String() != want {
		t.Fatalf("fed leaves %q, want r0 and r1", fed.String())
	}
	if err := Replay(&Batcher{}, path, 1, 9); err == nil {
		t.Fatal("short file accepted")
	}
}
