package obs

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// CLI owns the flag wiring the long-running commands used to copy-paste:
// the worker/retry knobs and the -metrics/-pprof observability pair. A
// command binds the flags it wants before flag.Parse, calls Start after,
// and Finish once the run is done:
//
//	cli := obs.NewCLI("study")
//	cli.BindWorkers("parallel workers for the grading loop (0 = GOMAXPROCS)")
//	cli.BindObs()
//	flag.Parse()
//	cli.Start()
//	... run with cli.Workers / cli.Metrics ...
//	cli.Finish()
type CLI struct {
	// Prog prefixes every diagnostic ("study: ...").
	Prog string
	// Workers is the -workers value once parsed (0 = GOMAXPROCS).
	Workers int
	// Retries is the -retries value once parsed.
	Retries int
	// Metrics is the run's registry; always non-nil so commands can wire it
	// unconditionally. It is only exported when -metrics names a file.
	Metrics *Registry

	// LedgerBatch is the -ledger-batch value: leaves per anchored Merkle
	// batch in a checkpointed run (0 disables the ledger entirely).
	LedgerBatch int
	// LedgerLatency is the -ledger-latency value: how long appended records
	// may sit without a (partial) anchor commitment; 0 anchors only at batch
	// boundaries.
	LedgerLatency time.Duration
	// LedgerSidecar is the -ledger-sidecar value: the leaf-hash sidecar file
	// letting ledgerverify name the exact tampered rank.
	LedgerSidecar string

	metricsFile string
	pprofAddr   string
}

// NewCLI creates the flag helper for a command named prog.
func NewCLI(prog string) *CLI {
	return &CLI{Prog: prog, Metrics: NewRegistry()}
}

// BindWorkers registers -workers on the default flag set.
func (c *CLI) BindWorkers(usage string) {
	if usage == "" {
		usage = "parallel workers (0 = GOMAXPROCS)"
	}
	flag.IntVar(&c.Workers, "workers", 0, usage)
}

// BindRetries registers -retries with the command's default attempt budget.
func (c *CLI) BindRetries(def int, usage string) {
	if usage == "" {
		usage = "extra attempts after a transient failure (0 = try once)"
	}
	flag.IntVar(&c.Retries, "retries", def, usage)
}

// BindLedger registers the tamper-evident ledger trio. The ledger is active
// whenever the run checkpoints (-checkpoint) and -ledger-batch is non-zero:
// every emitted record line becomes a Merkle leaf, batch roots anchor into
// the checkpoint journal, and cmd/ledgerverify audits the output against
// them afterwards.
func (c *CLI) BindLedger() {
	flag.IntVar(&c.LedgerBatch, "ledger-batch", 1024, "leaves per anchored Merkle batch in a checkpointed run (0 disables the ledger)")
	flag.DurationVar(&c.LedgerLatency, "ledger-latency", 0, "flush a provisional anchor when records sit unanchored this long (0 = batch boundaries only)")
	flag.StringVar(&c.LedgerSidecar, "ledger-sidecar", "", "write one leaf hash per record to this file so ledgerverify can name the exact tampered rank")
}

// BindObs registers the -metrics and -pprof pair.
func (c *CLI) BindObs() {
	flag.StringVar(&c.metricsFile, "metrics", "", "write the run's metrics snapshot as JSON to this file")
	flag.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address for the run's duration")
}

// Validate rejects ledger flag values the run could not honour: a negative
// batch size or latency, and a sidecar with the ledger switched off.
func (c *CLI) Validate() error {
	if c.LedgerBatch < 0 {
		return fmt.Errorf("-ledger-batch %d: batch size cannot be negative", c.LedgerBatch)
	}
	if c.LedgerLatency < 0 {
		return fmt.Errorf("-ledger-latency %s: latency cannot be negative", c.LedgerLatency)
	}
	if c.LedgerSidecar != "" && c.LedgerBatch == 0 {
		return errors.New("-ledger-sidecar requires -ledger-batch > 0 (the sidecar is part of the ledger)")
	}
	return nil
}

// Start performs the post-Parse setup (flag validation, then the pprof
// listener), exiting with a diagnostic on failure so every command reports
// errors the same way.
func (c *CLI) Start() {
	if err := c.Validate(); err != nil {
		c.Fatal(err)
	}
	addr, err := StartPprof(c.pprofAddr)
	if err != nil {
		c.Fatal(err)
	}
	if addr != "" {
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", c.Prog, addr)
	}
}

// Finish exports the metrics snapshot when -metrics was given. The snapshot
// includes the run's peak RSS (proc.max_rss_kb), so the JSON doubles as the
// memory record for benchmark scripts, and the published process counters
// (RecordProcess).
func (c *CLI) Finish() {
	if c.metricsFile == "" {
		return
	}
	c.Metrics.RecordProcess()
	if err := WriteJSON(c.Metrics, c.metricsFile); err != nil {
		c.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: metrics written to %s\n", c.Prog, c.metricsFile)
}

// Fatal prints a prog-prefixed diagnostic and exits non-zero — the error
// path every command previously hand-rolled.
func (c *CLI) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Prog, err)
	os.Exit(1)
}

// StartPprof serves the net/http/pprof handlers on addr (e.g.
// "localhost:6060") in a background goroutine, returning the bound address.
// The commands expose it behind a -pprof flag so a long scan can be profiled
// live; an empty addr is a no-op returning "".
//
// The listener is bound synchronously — a bad address fails here, not later
// in a goroutine whose error nobody sees.
func StartPprof(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux) //nolint:errcheck // dies with the process
	return ln.Addr().String(), nil
}

// WriteJSON renders the registry's snapshot as indented JSON and writes it
// to path — the -metrics flag's implementation. A nil registry writes an
// empty snapshot, so the flag behaves identically whether or not the run
// wired metrics.
func WriteJSON(r *Registry, path string) error {
	data, err := r.Snapshot().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
