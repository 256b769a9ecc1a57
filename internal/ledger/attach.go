// Journal glue: the ledger anchors into the same checkpoint journal the
// pipeline watermarks through, so one file is both the resume state and the
// tamper-evidence trail. Resume works by replay: the recovered output lines
// are re-hashed through the batcher (or folder), already-journaled anchors
// verify via the Known hook instead of re-emitting, and a mismatch — the
// output file and the journal telling different stories — is a hard error,
// never a silent re-anchor.
package ledger

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/pipeline"
)

// Appender consumes record lines (without trailing newlines) as ledger
// leaves. Batcher (single-process) and Folder (distributed resume seeding)
// both satisfy it.
type Appender interface {
	Append(line []byte) error
}

// journalEmit adapts a journal stage into a Batcher/Folder Emit hook.
func journalEmit(j *pipeline.Journal, stage string) func(Anchor) error {
	return func(a Anchor) error {
		return j.Anchor(stage, a.Batch, a.Lo, a.Hi, HexHash(a.Root), a.Partial)
	}
}

// journalKnown adapts a journal stage into a Known hook.
func journalKnown(j *pipeline.Journal, stage string) func(int) (Hash, bool) {
	return func(batch int) (Hash, bool) {
		s, ok := j.AnchorRoot(stage, batch)
		if !ok {
			return Hash{}, false
		}
		return ParseHash(s)
	}
}

// JournalBatcher builds a batcher that anchors the stage's batch roots into
// the checkpoint journal. size <= 0 means DefaultBatch; latency 0 disables
// partial flushes; sidecar may be nil.
func JournalBatcher(j *pipeline.Journal, stage string, size int, latency time.Duration, clock faults.Clock, sidecar io.Writer) *Batcher {
	return &Batcher{
		Size:       size,
		MaxLatency: latency,
		Clock:      clock,
		Sidecar:    sidecar,
		Emit:       journalEmit(j, stage),
		Known:      journalKnown(j, stage),
	}
}

// JournalFolder builds the coordinator-side folder for a distributed run,
// anchoring into the same journal stage a single-process run would.
func JournalFolder(j *pipeline.Journal, stage string, size int, sidecar io.Writer) *Folder {
	return &Folder{
		Size:    size,
		Sidecar: sidecar,
		Emit:    journalEmit(j, stage),
		Known:   journalKnown(j, stage),
	}
}

// Replay re-hashes recovered output lines through an appender — the resume
// path. header lines are skipped; limit bounds the record lines fed (< 0
// means all, the sparse-sink case where the recovered line count is the leaf
// count). A file shorter than limit is an error: the caller's resume point
// says those lines exist.
func Replay(a Appender, path string, header, limit int) error {
	if limit == 0 {
		return nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) && limit < 0 {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ledger: replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		if header > 0 {
			header--
			continue
		}
		if limit >= 0 && n >= limit {
			break
		}
		if err := a.Append(sc.Bytes()); err != nil {
			return err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ledger: replay %s: %w", path, err)
	}
	if limit >= 0 && n < limit {
		return fmt.Errorf("ledger: replay %s: file has %d record lines, resume point says %d", path, n, limit)
	}
	return nil
}

// Seal closes a batcher and journals the stage's run root — the single hash
// committing to every record of the run. Returns the run root and leaf
// count; an empty run journals nothing.
func Seal(b *Batcher, j *pipeline.Journal, stage string) (Hash, int, error) {
	root, n, err := b.Close()
	if err != nil || n == 0 {
		return root, n, err
	}
	return root, n, j.RunRoot(stage, len(b.Roots()), n, HexHash(root))
}

// SealFolder closes a folder over a total-leaf run and journals the run
// root, mirroring Seal for the distributed path.
func SealFolder(f *Folder, j *pipeline.Journal, stage string, total int) (Hash, int, error) {
	root, n, err := f.Close(total)
	if err != nil || n == 0 {
		return root, n, err
	}
	return root, n, j.RunRoot(stage, len(f.Roots()), n, HexHash(root))
}
