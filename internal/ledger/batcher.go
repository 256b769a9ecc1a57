// The batcher: the streaming half of the ledger. A sink feeds it every
// emitted record line; it hashes the leaf immediately (amortizing the
// hashing over the run instead of paying it at flush), cuts batches at
// deterministic Size boundaries, and emits one Anchor per completed batch.
// A latency knob can additionally flush provisional partial anchors so a
// long-running batch is never more than MaxLatency of records away from an
// auditable commitment — partial anchors are marked as such and superseded
// by the batch's final anchor, so the final anchor sequence stays a pure
// function of the record sequence.
package ledger

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"chainchaos/internal/faults"
)

// DefaultBatch is the default batch size (leaves per anchored root).
const DefaultBatch = 1024

// Anchor is one anchored commitment: the Merkle root of leaves [Lo, Hi) —
// batch-global leaf sequence numbers, Hi-Lo <= Size — of batch Batch.
// Partial marks a latency flush of an incomplete batch.
type Anchor struct {
	Batch   int
	Lo, Hi  int
	Root    Hash
	Partial bool
}

// Batcher accumulates record lines into fixed-size Merkle batches.
// Not safe for concurrent use: sinks retire records serially by design.
// All methods are no-ops on a nil receiver, so an unledgered run pays one
// nil check per record.
type Batcher struct {
	// Size is the batch size in leaves; <= 0 means DefaultBatch. Batch b
	// covers leaf sequence numbers [b·Size, (b+1)·Size).
	Size int
	// Emit receives each completed batch's final anchor, in batch order,
	// and the latency flushes' partial anchors. Required.
	Emit func(Anchor) error
	// Known, when non-nil, reports a previously anchored root for a batch
	// (a resumed run). A known batch's recomputed root must match — a
	// mismatch means the output file and the journal diverged — and its
	// anchor is not re-emitted.
	Known func(batch int) (Hash, bool)
	// MaxLatency, when > 0, bounds how long appended leaves may sit
	// unanchored: an Append arriving more than MaxLatency after the oldest
	// unanchored leaf first flushes a partial anchor for the open batch.
	MaxLatency time.Duration
	// Clock times MaxLatency; nil means the wall clock.
	Clock faults.Clock
	// Sidecar, when non-nil, receives one lowercase-hex leaf hash per line,
	// in leaf order — the per-record commitment cmd/ledgerverify uses to
	// pinpoint the exact tampered rank instead of just the batch.
	Sidecar io.Writer

	seq      int    // next leaf sequence number
	cur      []Hash // leaf hashes of the open batch
	roots    []Hash // final roots of batches 0..seq/Size-1
	oldest   time.Time
	pending  bool // cur has leaves newer than the last partial flush
	sidecarW *bufio.Writer
}

// Roots returns the final roots of every completed batch so far.
func (b *Batcher) Roots() []Hash {
	if b == nil {
		return nil
	}
	return b.roots
}

func (b *Batcher) size() int {
	if b.Size <= 0 {
		return DefaultBatch
	}
	return b.Size
}

// Append adds one record line (without its trailing newline) as the next
// leaf. Completing a batch emits its anchor; under MaxLatency an overdue
// open batch first flushes a partial anchor.
func (b *Batcher) Append(line []byte) error {
	if b == nil {
		return nil
	}
	if b.MaxLatency > 0 {
		clock := b.Clock
		if clock == nil {
			clock = faults.Wall()
		}
		now := clock.Now()
		if b.pending && now.Sub(b.oldest) > b.MaxLatency {
			if err := b.flushPartial(); err != nil {
				return err
			}
		}
		if !b.pending {
			b.oldest = now
		}
	}
	h := LeafHash(line)
	if b.Sidecar != nil {
		if b.sidecarW == nil {
			b.sidecarW = bufio.NewWriter(b.Sidecar)
		}
		if _, err := b.sidecarW.WriteString(HexHash(h) + "\n"); err != nil {
			return fmt.Errorf("ledger: sidecar: %w", err)
		}
	}
	b.cur = append(b.cur, h)
	b.seq++
	b.pending = true
	if len(b.cur) == b.size() {
		return b.closeBatch()
	}
	return nil
}

// closeBatch finalizes the open batch: compute its root, check it against a
// Known anchor or emit a new one, and start the next batch.
func (b *Batcher) closeBatch() error {
	batch := b.seq/b.size() - 1
	if b.seq%b.size() != 0 { // final short batch at Close
		batch = b.seq / b.size()
	}
	root := RootOf(b.cur)
	lo := batch * b.size()
	a := Anchor{Batch: batch, Lo: lo, Hi: lo + len(b.cur), Root: root}
	b.roots = append(b.roots, root)
	b.cur = b.cur[:0]
	b.pending = false
	if b.Known != nil {
		if known, ok := b.Known(batch); ok {
			if known != root {
				return fmt.Errorf("ledger: batch %d re-anchored to %s but journal holds %s — output and journal diverged",
					batch, HexHash(root), HexHash(known))
			}
			return nil // already anchored by the interrupted run
		}
	}
	if b.Emit == nil {
		return nil
	}
	return b.Emit(a)
}

// flushPartial emits a provisional anchor over the open batch's prefix.
func (b *Batcher) flushPartial() error {
	b.pending = false
	if len(b.cur) == 0 || b.Emit == nil {
		return nil
	}
	batch := b.seq / b.size()
	lo := batch * b.size()
	return b.Emit(Anchor{Batch: batch, Lo: lo, Hi: lo + len(b.cur), Root: RootOf(b.cur), Partial: true})
}

// RunRoot folds the batch roots into the run-level commitment: the Merkle
// root of a tree whose leaves are the batch roots (each hashed as a leaf).
// One hash therefore commits to every record of the run.
func RunRoot(batchRoots []Hash) Hash {
	leaves := make([]Hash, len(batchRoots))
	for i, r := range batchRoots {
		leaves[i] = LeafHash(r[:])
	}
	return RootOf(leaves)
}

// Close finalizes the ledger: the open partial batch (if any) becomes the
// final short batch with a real (non-partial) anchor, and the sidecar is
// flushed. Returns the run root over all batch roots and the total leaf
// count. Safe on a nil batcher (zero Hash, 0).
func (b *Batcher) Close() (Hash, int, error) {
	if b == nil {
		return Hash{}, 0, nil
	}
	if len(b.cur) > 0 {
		if err := b.closeBatch(); err != nil {
			return Hash{}, 0, err
		}
	}
	if b.sidecarW != nil {
		if err := b.sidecarW.Flush(); err != nil {
			return Hash{}, 0, fmt.Errorf("ledger: sidecar: %w", err)
		}
	}
	return RunRoot(b.roots), b.seq, nil
}
