// The auditor's side: re-hash an output file against the anchors its
// checkpoint journal committed to, streaming batch by batch so a 10M-line
// study verifies in one pass without holding the tree in memory. With the
// leaf-hash sidecar the verdict is exact — the sidecar is trusted only
// per-batch, after its own roll-up reproduces the anchored root, and then
// any line whose hash disagrees with the sidecar is provably the tampered
// one, by rank.
package ledger

import (
	"bufio"
	"fmt"
	"os"

	"chainchaos/internal/pipeline"
)

// Report summarizes a successful verification.
type Report struct {
	Stage    string
	Lines    int    // record lines hashed from the output file
	Batches  int    // final anchors verified
	Partials int    // partial (latency-flush) anchors checked beyond the last final anchor
	Tail     int    // trailing lines not covered by any anchor (an interrupted run's open batch)
	RunRoot  string // verified run root (hex); "" when the journal has no runroot record
	Sidecar  bool   // a sidecar participated (exact-rank tamper attribution available)
}

// TamperError is a verification failure attributable to the data, not the
// invocation: the output file and the journaled commitments disagree.
type TamperError struct {
	// Rank is the offending leaf index (== rank for dense sinks, emission
	// order for sparse ones); -1 when only a batch range could be named.
	Rank   int
	Batch  int
	Lo, Hi int
	Detail string
}

func (e *TamperError) Error() string {
	if e.Rank >= 0 {
		return fmt.Sprintf("ledger: TAMPERED at rank %d (batch %d, leaves [%d,%d)): %s", e.Rank, e.Batch, e.Lo, e.Hi, e.Detail)
	}
	return fmt.Sprintf("ledger: TAMPERED in batch %d (leaves [%d,%d)): %s", e.Batch, e.Lo, e.Hi, e.Detail)
}

// anchorSet is the journal's commitments for one stage.
type anchorSet struct {
	finals   map[int]pipeline.AnchorRecord // final anchor per batch
	partials []pipeline.AnchorRecord
	runroot  *pipeline.AnchorRecord // last runroot record, if any
	size     int
	maxBatch int
}

// loadAnchors reads and indexes the stage's anchor records.
func loadAnchors(journalPath, stage string) (*anchorSet, error) {
	recs, err := pipeline.ReadAnchors(journalPath)
	if err != nil {
		return nil, err
	}
	s := &anchorSet{finals: make(map[int]pipeline.AnchorRecord), maxBatch: -1}
	for _, r := range recs {
		if r.Stage != stage {
			continue
		}
		// No writer journals a negative batch, a negative leaf or an
		// inverted span; the batch arithmetic below relies on all three.
		if r.Batch < 0 || r.Lo < 0 || r.Hi < r.Lo {
			return nil, fmt.Errorf("ledger: inconsistent anchors: %s batch %d spans leaves [%d,%d)", r.Event, r.Batch, r.Lo, r.Hi)
		}
		switch {
		case r.Event == "runroot":
			rr := r
			s.runroot = &rr
		case r.Partial:
			s.partials = append(s.partials, r)
		default:
			if prev, ok := s.finals[r.Batch]; ok && prev.Root != r.Root {
				return nil, fmt.Errorf("ledger: journal holds conflicting anchors for %s batch %d", stage, r.Batch)
			}
			s.finals[r.Batch] = r
			if r.Batch > s.maxBatch {
				s.maxBatch = r.Batch
			}
			if span := r.Hi - r.Lo; span > s.size {
				s.size = span
			}
		}
	}
	if len(s.finals) == 0 && len(s.partials) == 0 {
		return nil, fmt.Errorf("ledger: no %q anchors in %s", stage, journalPath)
	}
	if s.size == 0 { // only partial anchors (run died inside batch 0)
		for _, p := range s.partials {
			if span := p.Hi - p.Lo; span > s.size {
				s.size = span
			}
		}
	}
	// Sanity: every anchor's Lo must sit on a batch boundary of the derived
	// size (the largest span is a full batch whenever more than one exists).
	for b, r := range s.finals {
		if r.Lo != b*s.size {
			return nil, fmt.Errorf("ledger: inconsistent anchors: batch %d starts at leaf %d, batch size %d", b, r.Lo, s.size)
		}
		if b < s.maxBatch && r.Hi-r.Lo != s.size {
			return nil, fmt.Errorf("ledger: inconsistent anchors: non-final batch %d spans %d leaves, batch size %d", b, r.Hi-r.Lo, s.size)
		}
	}
	return s, nil
}

// lineSource streams record lines of an output file past its header.
type lineSource struct {
	f  *os.File
	sc *bufio.Scanner
}

func openLines(path string, header int) (*lineSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for header > 0 && sc.Scan() {
		header--
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, err
	}
	return &lineSource{f: f, sc: sc}, nil
}

func (s *lineSource) next() ([]byte, bool, error) {
	if s.sc.Scan() {
		return s.sc.Bytes(), true, nil
	}
	return nil, false, s.sc.Err()
}

func (s *lineSource) close() { s.f.Close() }

// VerifyFile re-hashes the output file at outPath against the stage's
// anchors in journalPath. header names leading non-record lines to skip.
// sidecarPath, when non-empty, is the leaf-hash sidecar enabling exact-rank
// attribution. Tampering returns a *TamperError; other errors are
// invocation or journal problems.
func VerifyFile(outPath string, header int, journalPath, stage, sidecarPath string) (*Report, error) {
	anchors, err := loadAnchors(journalPath, stage)
	if err != nil {
		return nil, err
	}
	lines, err := openLines(outPath, header)
	if err != nil {
		return nil, err
	}
	defer lines.close()

	var side *lineSource
	if sidecarPath != "" {
		side, err = openLines(sidecarPath, 0)
		if err != nil {
			return nil, err
		}
		defer side.close()
	}

	rep := &Report{Stage: stage, Sidecar: side != nil}
	size := anchors.size
	var (
		cur       []Hash // file leaf hashes of the open batch
		sideCur   []Hash // sidecar hashes of the open batch
		sideShort bool   // sidecar ran out before the file did
		batch     int
		roots     []Hash // verified batch roots, for the runroot check
	)

	checkBatch := func() error {
		rec, ok := anchors.finals[batch]
		if !ok {
			return nil // past the last final anchor; handled by the tail logic
		}
		want, parsed := ParseHash(rec.Root)
		if !parsed {
			return fmt.Errorf("ledger: journal anchor for batch %d holds malformed root %q", batch, rec.Root)
		}
		got := RootOf(cur)
		if got == want {
			roots = append(roots, got)
			rep.Batches++
			return nil
		}
		lo := batch * size
		// The file disagrees with the anchor. If the sidecar's own roll-up
		// reproduces the anchored root, the sidecar is the committed leaf
		// sequence and names the exact rank; otherwise only the batch range.
		if len(sideCur) == len(cur) && RootOf(sideCur) == want {
			for i := range cur {
				if cur[i] != sideCur[i] {
					return &TamperError{Rank: lo + i, Batch: batch, Lo: rec.Lo, Hi: rec.Hi,
						Detail: fmt.Sprintf("line hash %s, committed %s", HexHash(cur[i]), HexHash(sideCur[i]))}
				}
			}
		}
		return &TamperError{Rank: -1, Batch: batch, Lo: rec.Lo, Hi: rec.Hi,
			Detail: fmt.Sprintf("batch root %s, anchored %s", HexHash(got), HexHash(want))}
	}

	for {
		line, ok, err := lines.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		cur = append(cur, LeafHash(line))
		rep.Lines++
		if side != nil && !sideShort {
			sline, sok, serr := side.next()
			if serr != nil {
				return nil, serr
			}
			if !sok {
				sideShort = true
			} else if h, parsed := ParseHash(string(sline)); parsed {
				sideCur = append(sideCur, h)
			} else {
				return nil, fmt.Errorf("ledger: sidecar line %d is not a hex hash", rep.Lines-1)
			}
		}
		span := size
		if rec, ok := anchors.finals[batch]; ok {
			span = rec.Hi - rec.Lo
		}
		if len(cur) == span {
			if _, ok := anchors.finals[batch]; !ok {
				break // unanchored territory; stop batching, count the tail
			}
			if err := checkBatch(); err != nil {
				return rep, err
			}
			cur, sideCur = cur[:0], sideCur[:0]
			batch++
		}
	}

	// Count any remaining unbatched lines (the loop may have broken out).
	// Everything past the last verified final anchor is tail until a partial
	// anchor vouches for it.
	tailStart := batch * size
	for {
		_, ok, err := lines.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rep.Lines++
	}

	// Truncation: anchors extend past the file's end.
	if rec, ok := anchors.finals[batch]; ok {
		return rep, &TamperError{Rank: -1, Batch: batch, Lo: rec.Lo, Hi: rec.Hi,
			Detail: fmt.Sprintf("output truncated: journal anchors %d leaves, file has %d record lines", rec.Hi, rep.Lines)}
	}

	// Partial anchors beyond the last final one: a latency flush committed a
	// prefix of the open batch before the run died.
	for _, p := range anchors.partials {
		if p.Batch != batch || p.Hi <= batch*size {
			continue // superseded by a final anchor already verified above
		}
		n := p.Hi - p.Lo
		if n > len(cur) {
			return rep, &TamperError{Rank: -1, Batch: batch, Lo: p.Lo, Hi: p.Hi,
				Detail: fmt.Sprintf("output truncated: partial anchor commits %d leaves, file has %d record lines", p.Hi, rep.Lines)}
		}
		want, parsed := ParseHash(p.Root)
		if !parsed {
			return nil, fmt.Errorf("ledger: partial anchor for batch %d holds malformed root %q", batch, p.Root)
		}
		if got := RootOf(cur[:n]); got != want {
			if len(sideCur) >= n && RootOf(sideCur[:n]) == want {
				for i := 0; i < n; i++ {
					if cur[i] != sideCur[i] {
						return rep, &TamperError{Rank: p.Lo + i, Batch: batch, Lo: p.Lo, Hi: p.Hi,
							Detail: fmt.Sprintf("line hash %s, committed %s", HexHash(cur[i]), HexHash(sideCur[i]))}
					}
				}
			}
			return rep, &TamperError{Rank: -1, Batch: batch, Lo: p.Lo, Hi: p.Hi,
				Detail: fmt.Sprintf("partial root %s, anchored %s", HexHash(got), HexHash(want))}
		}
		rep.Partials++
		if covered := p.Hi; covered > tailStart {
			tailStart = covered
		}
	}
	rep.Tail = rep.Lines - tailStart
	if rep.Tail < 0 {
		rep.Tail = 0
	}

	// The run root, when journaled, pins the total: extra or missing lines
	// beyond the anchored batches are tampering, not an interrupted tail.
	if rr := anchors.runroot; rr != nil {
		if rep.Lines != rr.Hi {
			return rep, &TamperError{Rank: -1, Batch: rr.Batch, Lo: 0, Hi: rr.Hi,
				Detail: fmt.Sprintf("run root commits %d leaves, file has %d record lines", rr.Hi, rep.Lines)}
		}
		want, parsed := ParseHash(rr.Root)
		if !parsed {
			return nil, fmt.Errorf("ledger: runroot record holds malformed root %q", rr.Root)
		}
		if got := RunRoot(roots); got != want {
			return rep, &TamperError{Rank: -1, Batch: rr.Batch, Lo: 0, Hi: rr.Hi,
				Detail: fmt.Sprintf("run root %s, journaled %s", HexHash(got), HexHash(want))}
		}
		rep.RunRoot = rr.Root
	}
	return rep, nil
}

// ReadLeafRange re-hashes record lines [lo, hi) of the output file — the
// proof-generation helper behind ledgerverify -prove.
func ReadLeafRange(path string, header, lo, hi int) ([]Hash, error) {
	lines, err := openLines(path, header)
	if err != nil {
		return nil, err
	}
	defer lines.close()
	out := make([]Hash, 0, hi-lo)
	for i := 0; i < hi; i++ {
		line, ok, err := lines.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("ledger: %s has %d record lines, need %d", path, i, hi)
		}
		if i >= lo {
			out = append(out, LeafHash(line))
		}
	}
	return out, nil
}
