// Journal glue: the ledger anchors into the same checkpoint journal the
// pipeline watermarks through, so one file is both the resume state and the
// tamper-evidence trail. Resume works by replay: the recovered output lines
// are re-hashed through the batcher, already-journaled anchors verify via
// the Known hook instead of re-emitting, and a mismatch — the output file
// and the journal telling different stories — is a hard error, never a
// silent re-anchor.
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

// JournalBatcher builds a batcher that anchors the stage's batch roots into
// the checkpoint journal. size <= 0 means DefaultBatch; latency 0 disables
// partial flushes; sidecar may be nil.
func JournalBatcher(j *pipeline.Journal, stage string, size int, latency time.Duration, clock faults.Clock, sidecar io.Writer) *Batcher {
	return &Batcher{
		Size:       size,
		MaxLatency: latency,
		Clock:      clock,
		Sidecar:    sidecar,
		Emit: func(a Anchor) error {
			return j.Anchor(stage, a.Batch, a.Lo, a.Hi, HexHash(a.Root), a.Partial)
		},
		Known: func(batch int) (Hash, bool) {
			s, ok := j.AnchorRoot(stage, batch)
			if !ok {
				return Hash{}, false
			}
			return ParseHash(s)
		},
	}
}

// Replay re-hashes recovered output lines through the batcher — the resume
// path. header lines are skipped; limit bounds the record lines fed (< 0
// means all, the sparse-sink case where the recovered line count is the leaf
// count). A file shorter than limit is an error: the caller's resume point
// says those lines exist.
func Replay(b *Batcher, path string, header, limit int) error {
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
		if err := b.Append(sc.Bytes()); err != nil {
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
