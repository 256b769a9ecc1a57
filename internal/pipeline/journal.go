// The shard journal: a JSONL watermark stream recording, per stage, the
// highest rank retired so far. Because every stage releases ranks strictly
// in order, a single integer per stage is a complete description of
// progress — rank r retired implies every rank below r retired too. A run
// that is interrupted resumes from Last(stage)+1 and redoes at most the
// work between the last written watermark and the crash.
//
// Multi-writer safety: the file is opened O_APPEND and every record is
// appended with a single write(2) under an advisory flock, so several
// handles on one journal, in one process or several, never tear each
// other's lines. The watermark loader skips every line that carries an
// event: ledger anchors, run roots, and the lease records that journals
// written by older versions hold.
package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalEntry is one JSONL line of the shard journal. Stage watermarks use
// only (Stage, Rank); ledger-anchor records carry the extra fields and a
// non-empty Event, which is what the watermark loader keys off to skip
// them.
type journalEntry struct {
	Stage string `json:"stage"`
	Rank  int    `json:"rank"`

	// Ledger anchor fields (Event "anchor" / "runroot"): [Lo, Hi) is the
	// leaf span and Rank is Hi-1, Batch the batch index (the batch count
	// for a runroot), Root the Merkle root in hex, and Partial marks a
	// latency flush of an incomplete batch.
	Event   string `json:"event,omitempty"`
	Lo      int    `json:"lo,omitempty"`
	Hi      int    `json:"hi,omitempty"`
	Batch   int    `json:"batch,omitempty"`
	Root    string `json:"root,omitempty"`
	Partial bool   `json:"partial,omitempty"`
}

// AnchorRecord is one ledger commitment read back from a journal: the
// Merkle root (hex) of leaves [Lo, Hi) of batch Batch for the stage's sink.
// A "runroot" record carries the run-level root over all Batch batch roots.
type AnchorRecord struct {
	Stage   string
	Event   string // "anchor" or "runroot"
	Batch   int
	Lo, Hi  int
	Root    string
	Partial bool
}

// Journal is an append-only JSONL watermark file shared by every stage of a
// pipeline run. All methods are safe for concurrent use and are no-ops on a
// nil receiver, so an unjournaled run pays one nil check per retirement.
// Concurrent appenders — other handles in this process or other processes —
// are safe too: appends are single O_APPEND writes under an advisory flock.
type Journal struct {
	// Every is the write cadence: a stage's watermark line is appended every
	// Every retirements (and once more at Close). Lower values shrink the
	// redo window after a crash at the cost of more write calls; the default
	// is 64.
	Every int

	mu      sync.Mutex
	f       *os.File
	last    map[string]int            // highest rank journaled per stage
	since   map[string]int            // retirements since the stage's last written line
	high    map[string]int            // highest rank retired (in memory) per stage
	anchors map[string]map[int]string // final anchor root per (stage, batch)
	werr    error                     // first append error, surfaced by Flush/Close
}

// OpenJournal opens (or creates) the journal at path and loads every
// existing watermark, so Last immediately reflects the previous run. Lines
// that do not decode (a torn tail) and watermarks with a negative rank are
// skipped, so a resume point is never below zero.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pipeline: open journal: %w", err)
	}
	j := &Journal{
		Every:   64,
		f:       f,
		last:    make(map[string]int),
		since:   make(map[string]int),
		high:    make(map[string]int),
		anchors: make(map[string]map[int]string),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// A torn trailing line from a crash mid-write: older watermarks
			// still stand, so ignore it rather than refuse to resume.
			continue
		}
		if e.Event == "anchor" && !e.Partial {
			m := j.anchors[e.Stage]
			if m == nil {
				m = make(map[int]string)
				j.anchors[e.Stage] = m
			}
			m[e.Batch] = e.Root
			continue
		}
		if e.Event != "" {
			continue // a runroot, or an older version's lease record
		}
		if e.Rank < 0 {
			continue // no stage retires a negative rank: a garbled line
		}
		if cur, ok := j.last[e.Stage]; !ok || e.Rank > cur {
			j.last[e.Stage] = e.Rank
			j.high[e.Stage] = e.Rank
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("pipeline: read journal: %w", err)
	}
	return j, nil
}

// Checkpoint opens (creating if absent) the journal at path and returns it
// together with the resume rank for stage's sink — the first rank the
// previous run had not yet retired, 0 for a fresh journal. It is the
// -checkpoint flag's implementation, shared by every streaming command.
func Checkpoint(path, stage string) (*Journal, int, error) {
	j, err := OpenJournal(path)
	if err != nil {
		return nil, 0, err
	}
	return j, j.Last(SinkName(stage)) + 1, nil
}

// Last returns the highest journaled rank for the stage, or -1 if the stage
// has no watermark. Returns -1 on a nil journal.
func (j *Journal) Last(stage string) int {
	if j == nil {
		return -1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if r, ok := j.last[stage]; ok {
		return r
	}
	return -1
}

// Retire records that the stage retired rank. A watermark line is written
// every Every retirements; in between, progress is tracked in memory only
// (Close writes the final line). No-op on a nil journal.
func (j *Journal) Retire(stage string, rank int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Stages retire ranks in strictly increasing order, so the latest rank
	// is the watermark.
	j.high[stage] = rank
	j.since[stage]++
	every := j.Every
	if every <= 0 {
		every = 1
	}
	if j.since[stage] >= every {
		j.writeLocked(journalEntry{Stage: stage, Rank: j.high[stage]})
	}
}

// Anchor appends one ledger anchor record for the stage's sink: the Merkle
// root (hex) of leaves [lo, hi) of batch. Anchors write through immediately
// — they are the tamper-evidence trail — and a write failure is returned
// here, not deferred: a run must not keep emitting records it cannot anchor.
// Duplicate final anchors for a batch are dropped when the root matches and
// rejected when it does not. No-op on a nil journal.
func (j *Journal) Anchor(stage string, batch, lo, hi int, root string, partial bool) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !partial {
		m := j.anchors[stage]
		if prev, ok := m[batch]; ok {
			if prev != root {
				return fmt.Errorf("pipeline: anchor %s batch %d: root %s conflicts with journaled %s", stage, batch, root, prev)
			}
			return nil
		}
		if m == nil {
			m = make(map[int]string)
			j.anchors[stage] = m
		}
		m[batch] = root
	}
	j.writeLocked(journalEntry{Stage: stage, Rank: hi - 1, Event: "anchor", Batch: batch, Lo: lo, Hi: hi, Root: root, Partial: partial})
	return j.werr
}

// RunRoot appends the run-level commitment: the Merkle root (hex) over the
// batches batch roots, covering leaves [0, leaves). No-op on nil.
func (j *Journal) RunRoot(stage string, batches, leaves int, root string) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(journalEntry{Stage: stage, Rank: leaves - 1, Event: "runroot", Batch: batches, Lo: 0, Hi: leaves, Root: root})
	return j.werr
}

// AnchorRoot returns the journaled final anchor root (hex) for the stage's
// batch, if any — the resume hook a rebuilt ledger batcher checks before
// re-emitting. Returns "", false on a nil journal.
func (j *Journal) AnchorRoot(stage string, batch int) (string, bool) {
	if j == nil {
		return "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	root, ok := j.anchors[stage][batch]
	return root, ok
}

// ReadAnchors returns every ledger anchor and runroot record in the journal
// at path, in append order. A missing file returns no records; torn lines
// are skipped.
func ReadAnchors(path string) ([]AnchorRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: read anchors: %w", err)
	}
	defer f.Close()
	var out []AnchorRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var e journalEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || (e.Event != "anchor" && e.Event != "runroot") {
			continue
		}
		out = append(out, AnchorRecord{Stage: e.Stage, Event: e.Event, Batch: e.Batch, Lo: e.Lo, Hi: e.Hi, Root: e.Root, Partial: e.Partial})
	}
	return out, sc.Err()
}

// writeLocked appends one journal line as a single O_APPEND write under the
// file's advisory lock. Callers hold j.mu. The first write or marshal error
// is recorded and surfaced by Flush/Close (and by the write-through record
// appenders): a journal on a full disk must not keep reporting success.
func (j *Journal) writeLocked(e journalEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		if j.werr == nil {
			j.werr = fmt.Errorf("pipeline: journal marshal: %w", err)
		}
		return
	}
	data = append(data, '\n')
	lockFile(j.f)
	_, err = j.f.Write(data)
	unlockFile(j.f)
	if err != nil {
		if j.werr == nil {
			j.werr = fmt.Errorf("pipeline: journal append: %w", err)
		}
		return
	}
	if e.Event == "" {
		j.last[e.Stage] = e.Rank
		j.since[e.Stage] = 0
	}
}

// Flush writes the current in-memory watermark of every stage that advanced
// past its last written line, and reports the journal's first append error
// — including errors from earlier cadence-batched Retire writes that had no
// error path of their own.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for stage, rank := range j.high {
		if last, ok := j.last[stage]; !ok || rank > last {
			j.writeLocked(journalEntry{Stage: stage, Rank: rank})
		}
	}
	return j.werr
}

// Close flushes the final watermarks and closes the file, reporting the
// journal's first append error. No-op on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	ferr := j.Flush()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
