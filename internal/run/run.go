// Package run is the record path every record-emitting command shares:
// checkpoint journal → output recovery → out-file → Merkle ledger. A
// command describes its record format (Records), opens the path (Open),
// runs its pipeline from Output.Resume over Output.Journal, hands each
// retired rank's record to Output.Emit, and closes the path (Close); the
// harness does the rest, the same way for every command.
//
// The order of the steps is the crash-safety argument. A record line is
// written to the out-file (one write call, unbuffered) before the ledger
// hashes it and before the pipeline journals its rank, so after a kill -9
// the file is never behind the journal and every anchored leaf is on disk.
// The file can be ahead of the journal, or end in a torn line;
// pipeline.RecoverOutput trims both on the next Open, and the ledger
// re-hashes the kept lines (ledger.Replay) so already-anchored batches are
// verified rather than anchored twice.
package run

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chainchaos/internal/ledger"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

// Records describes a command's record stream and the two files its flags
// name for it.
type Records struct {
	// Stage is the journal stage whose sink retires the records.
	Stage string
	// Header holds the lines a fresh out-file starts with (a TSV header).
	// They are format, not records: recovery keeps them and the ledger
	// skips them.
	Header []string
	// Rank maps a record line to its zero-based rank. Nil means the stream
	// is dense: line i is rank i. A sparse stream, where some ranks emit no
	// line, needs it to find its resume point.
	Rank func(line []byte) (int, bool)

	// Out is the out-file and Checkpoint the journal, as the command's
	// flags name them ("" when unset).
	Out, Checkpoint string

	outFlag, checkpointFlag string
}

// Bind registers the out-file and journal flags under the command's own
// names and usage text, so diagnostics name the flags the user typed.
func (r *Records) Bind(out, outUsage, checkpoint, checkpointUsage string) {
	flag.StringVar(&r.Out, out, "", outUsage)
	flag.StringVar(&r.Checkpoint, checkpoint, "", checkpointUsage)
	r.outFlag, r.checkpointFlag = out, checkpoint
}

// check rejects a -ledger-sidecar the run could never write, naming the
// missing flag: the ledger anchors into the journal and audits the
// out-file.
func (r *Records) check(cli *obs.CLI) error {
	if cli.LedgerSidecar == "" {
		return nil
	}
	out, checkpoint := "out", "checkpoint"
	if r.outFlag != "" {
		out, checkpoint = r.outFlag, r.checkpointFlag
	}
	switch {
	case r.Checkpoint == "":
		return fmt.Errorf("-ledger-sidecar requires -%s (the ledger anchors into the journal)", checkpoint)
	case r.Out == "":
		return fmt.Errorf("-ledger-sidecar requires -%s (the ledger audits the out-file)", out)
	}
	return nil
}

// Output is a run's open record path.
type Output struct {
	// Journal is the checkpoint journal; nil without one.
	Journal *pipeline.Journal
	// Resume is the first rank this run produces: 0 on a fresh run, the
	// reconciled watermark on a resumed one.
	Resume int

	stage   string          // the journal stage the records retire under
	file    *os.File        // the out-file; nil when records go to stdout or nowhere
	w       io.Writer       // where records go; nil means nowhere
	sidecar *os.File        // the ledger's leaf-hash sidecar
	batcher *ledger.Batcher // the ledger; nil when it is off
}

// Open opens the record path of one run of cli's command: it opens the
// checkpoint journal, reconciles the out-file with it, opens the out-file
// (truncated on a fresh run, appended to on a checkpointed one), writes the
// header on a fresh run, and attaches the ledger — a Batcher anchoring into
// the journal — replaying the recovered lines through it.
//
// Records go to the out-file when one is named. Without one, a dense
// stream is the run's output and goes to stdout; a sparse stream lists only
// some ranks, so it is written to a named out-file or not at all.
//
// The ledger is on when the run has both a journal and an out-file and
// -ledger-batch is non-zero.
func Open(cli *obs.CLI, r Records) (o *Output, err error) {
	if err := r.check(cli); err != nil {
		return nil, err
	}
	o = &Output{stage: r.Stage}
	defer func() {
		if err != nil {
			o.closeFiles() //nolint:errcheck // the open error wins
			o = nil
		}
	}()
	if r.Checkpoint != "" {
		if o.Journal, o.Resume, err = pipeline.Checkpoint(r.Checkpoint, r.Stage); err != nil {
			return o, err
		}
		if r.Out != "" {
			if o.Resume, err = pipeline.RecoverOutput(r.Out, len(r.Header), o.Journal, r.Stage, r.Rank); err != nil {
				return o, err
			}
		}
		if o.Resume > 0 {
			fmt.Fprintf(os.Stderr, "%s: resuming from rank %d (printed totals cover the remaining ranks only)\n", cli.Prog, o.Resume+1)
		}
	}
	switch {
	case r.Out != "":
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if o.Journal != nil {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		if o.file, err = os.OpenFile(r.Out, mode, 0o644); err != nil {
			return o, err
		}
		o.w = o.file
	case r.Rank == nil:
		o.w = os.Stdout
	}
	if o.Resume == 0 && o.w != nil && len(r.Header) > 0 {
		if _, err = io.WriteString(o.w, strings.Join(r.Header, "\n")+"\n"); err != nil {
			return o, err
		}
	}
	if o.Journal == nil || o.file == nil || cli.LedgerBatch == 0 {
		return o, nil
	}
	var side io.Writer
	if cli.LedgerSidecar != "" {
		// Truncated even on resume: the replay below regrows the recovered
		// prefix, keeping the sidecar aligned with the out-file line for line.
		if o.sidecar, err = os.Create(cli.LedgerSidecar); err != nil {
			return o, err
		}
		side = o.sidecar
	}
	// A dense file's recovered lines are exactly the ranks below Resume; a
	// sparse file's leaves are all its recovered lines.
	replay := o.Resume
	if r.Rank != nil {
		replay = -1
	}
	o.batcher = ledger.JournalBatcher(o.Journal, r.Stage, cli.LedgerBatch, cli.LedgerLatency, nil, side)
	return o, ledger.Replay(o.batcher, r.Out, len(r.Header), replay)
}

// Emit writes one record line (without its trailing newline) and hashes it
// into the ledger. A nil line is a rank with no record (a sparse stream)
// and writes nothing. It has the shape of the pipelines' Record taps; the
// rank goes unused because the pipeline retires its ranks in order.
func (o *Output) Emit(_ int, line []byte) error {
	if line == nil {
		return nil
	}
	if o.w != nil {
		if _, err := o.w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return o.batcher.Append(line)
}

// Close ends a completed run: it seals the ledger, journaling the run root,
// then closes the sidecar, the out-file and the journal. It reports every
// failure among these, so a full disk fails the command instead of losing
// records silently.
func (o *Output) Close() error {
	var err error
	if o.batcher != nil {
		_, _, err = ledger.Seal(o.batcher, o.Journal, o.stage)
	}
	return errors.Join(err, o.closeFiles())
}

func (o *Output) closeFiles() error {
	var errs []error
	if o.sidecar != nil {
		errs = append(errs, o.sidecar.Close())
	}
	if o.file != nil {
		errs = append(errs, o.file.Close())
	}
	return errors.Join(append(errs, o.Journal.Close())...)
}
