// The grid executor: builds the spec's tools once, then walks every
// (cell, repeat) sequentially — wall-clock numbers are only comparable when
// cells never share the machine — running each step with substituted argv,
// timing it, scraping captures, inlining metrics snapshots, auditing ledgers
// and evaluating asserts. Serve steps run as background daemons with a
// readiness regex and a SIGTERM drain whose exit status is part of the
// contract.
package grid

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"chainchaos/internal/ledger"
)

// Runner executes one spec.
type Runner struct {
	Spec *Spec
	// Work is the work-tree root: tools build into Work/bin, setup runs in
	// Work/setup, cell repeats in Work/cells/<cell>/r<N>.
	Work string
	// Sets override spec vars (-set key=value).
	Sets map[string]any
	// Repeats, when > 0, overrides the spec's repeat count.
	Repeats int
	// CellFilter, when non-nil, restricts execution to matching cell names.
	CellFilter *regexp.Regexp
	// Log receives progress lines; nil means os.Stderr.
	Log io.Writer
}

// Result is the grid summary written as BENCH_<name>.json.
type Result struct {
	Grid      string                 `json:"grid"`
	HostCores int                    `json:"host_cores"`
	Vars      map[string]any         `json:"vars"`
	Repeats   int                    `json:"repeats"`
	Setup     map[string]*StepRecord `json:"setup,omitempty"`
	Cells     []*CellRecord          `json:"cells"`
	Final     []AssertRecord         `json:"final,omitempty"`
}

// CellRecord is one grid point's outcomes.
type CellRecord struct {
	Name    string          `json:"name"`
	Vars    map[string]any  `json:"vars"`
	Repeats []*RepeatRecord `json:"repeats"`
}

// RepeatRecord is one execution of a cell.
type RepeatRecord struct {
	Repeat  int                      `json:"repeat"`
	Steps   map[string]*StepRecord   `json:"steps"`
	Metrics map[string]any           `json:"metrics,omitempty"`
	Ledger  map[string]*LedgerRecord `json:"ledger,omitempty"`
	Asserts []AssertRecord           `json:"asserts,omitempty"`
}

// StepRecord is one step's outcome.
type StepRecord struct {
	WallMS   int64             `json:"wall_ms"`
	Skipped  bool              `json:"skipped,omitempty"`
	Captures map[string]string `json:"captures,omitempty"`
}

// LedgerRecord is the recorded ledger audit of a step's output.
type LedgerRecord struct {
	RunRoot string `json:"run_root,omitempty"`
	Batches int    `json:"batches"`
	Lines   int    `json:"lines"`
	Tail    int    `json:"tail,omitempty"`
	Sidecar bool   `json:"sidecar,omitempty"`
}

// AssertRecord is one evaluated assertion.
type AssertRecord struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	OK     bool   `json:"ok"`
}

// serveProc is a running serve-step daemon awaiting its drain. It owns the
// step's log/stdout files until the daemon exits — the daemon writes to them
// for as long as it lives.
type serveProc struct {
	step    *Step
	cmd     *exec.Cmd
	out     *safeBuf
	vars    map[string]any
	closers []io.Closer
	// done closes when the daemon's one Wait returns; waitErr is its result.
	done    chan struct{}
	waitErr error
}

// safeBuf is a mutex-guarded buffer shared by the runner and a daemon's
// output pipes.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (r *Runner) logf(format string, args ...any) {
	w := r.Log
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "grid: "+format+"\n", args...)
}

// Run executes the grid and returns its summary. The first failed step or
// assertion aborts the run with an error (partial results are not written —
// a benchmark record either holds everything it claims or nothing).
func (r *Runner) Run() (*Result, error) {
	repeats := r.Spec.Repeats
	if r.Repeats > 0 {
		repeats = r.Repeats
	}
	if repeats <= 0 {
		repeats = 1
	}
	res := &Result{
		Grid: r.Spec.Name, HostCores: runtime.NumCPU(), Repeats: repeats,
		Vars: map[string]any{},
	}
	base := map[string]any{}
	for k, v := range r.Spec.Vars {
		base[k] = v
	}
	for k, v := range r.Sets {
		base[k] = v
	}
	for k, v := range base {
		res.Vars[k] = v
	}

	binDir := filepath.Join(r.Work, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	tools := map[string]string{}
	for _, t := range r.Spec.Tools {
		out := filepath.Join(binDir, t)
		r.logf("building %s", t)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("grid: build %s: %v\n%s", t, err, msg)
		}
		tools[t] = out
	}

	// Setup phase: once, in its own directory, before any cell.
	setupDir := filepath.Join(r.Work, "setup")
	if err := os.MkdirAll(setupDir, 0o755); err != nil {
		return nil, err
	}
	base["work"], base["setup"] = r.Work, setupDir
	if len(r.Spec.Setup) > 0 {
		res.Setup = map[string]*StepRecord{}
		vars := withDir(base, setupDir, "setup", 0)
		rec := newRepeatRecord(0)
		var serves []*serveProc
		for i := range r.Spec.Setup {
			if err := r.runStep(&r.Spec.Setup[i], vars, rec, tools, &serves); err != nil {
				drainServes(serves, rec, nil)
				return nil, err
			}
		}
		if err := drainServes(serves, rec, r); err != nil {
			return nil, err
		}
		for id, sr := range rec.Steps {
			res.Setup[id] = sr
		}
		// Setup metrics/ledger records fold into a synthetic cell-less spot:
		// keep them visible under Setup via captures only; full records stay
		// in the setup repeat if ever needed.
		_ = rec
	}

	cells, err := r.Spec.cells()
	if err != nil {
		return nil, err
	}
	// Repeat-major order: every cell's repeat N runs before any cell's
	// repeat N+1. Cell-major order would let slow machine drift (thermal,
	// noisy neighbors) land entirely on the later cells and bias every
	// cross-cell wall comparison; interleaving spreads the drift evenly.
	recs := make([]*CellRecord, 0, len(cells))
	run := make([]cell, 0, len(cells))
	for _, c := range cells {
		if r.CellFilter != nil && !r.CellFilter.MatchString(c.name) {
			continue
		}
		crec := &CellRecord{Name: c.name, Vars: c.vars}
		res.Cells = append(res.Cells, crec)
		recs = append(recs, crec)
		run = append(run, c)
	}
	for rep := 0; rep < repeats; rep++ {
		for i, c := range run {
			dir := filepath.Join(r.Work, "cells", sanitize(c.name), fmt.Sprintf("r%d", rep))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			vars := withDir(base, dir, c.name, rep)
			for k, v := range c.vars {
				vars[k] = v
			}
			r.logf("cell %s repeat %d", c.name, rep)
			rrec := newRepeatRecord(rep)
			recs[i].Repeats = append(recs[i].Repeats, rrec)
			var serves []*serveProc
			for j := range r.Spec.Steps {
				if err := r.runStep(&r.Spec.Steps[j], vars, rrec, tools, &serves); err != nil {
					drainServes(serves, rrec, nil)
					return nil, fmt.Errorf("cell %s repeat %d: %w", c.name, rep, err)
				}
			}
			if err := drainServes(serves, rrec, r); err != nil {
				return nil, fmt.Errorf("cell %s repeat %d: %w", c.name, rep, err)
			}
		}
	}

	// Final asserts see the base bindings plus every cell's records.
	for _, a := range r.Spec.Final {
		rec, err := evalAssert(&a, base, res)
		res.Final = append(res.Final, rec)
		if err != nil {
			return nil, fmt.Errorf("final assert: %w", err)
		}
	}
	return res, nil
}

func newRepeatRecord(rep int) *RepeatRecord {
	return &RepeatRecord{
		Repeat: rep, Steps: map[string]*StepRecord{},
		Metrics: map[string]any{}, Ledger: map[string]*LedgerRecord{},
	}
}

// withDir copies base bindings and installs the per-execution reserved vars.
func withDir(base map[string]any, dir, cellName string, repeat int) map[string]any {
	vars := make(map[string]any, len(base)+3)
	for k, v := range base {
		vars[k] = v
	}
	vars["dir"] = dir
	vars["cell"] = cellName
	vars["repeat"] = float64(repeat)
	return vars
}

// sanitize maps a cell name onto a directory name.
func sanitize(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_', c == '=', c == ',':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// stepEnabled evaluates a step's when-gate against the bindings.
func stepEnabled(st *Step, vars map[string]any) bool {
	for k, want := range st.When {
		got, ok := vars[k]
		if !ok || formatValue(got) != formatValue(want) {
			return false
		}
	}
	return true
}

// runStep executes one step (or starts it, for serve steps) and records the
// outcome. Serve steps enqueue onto serves for the end-of-repeat drain.
func (r *Runner) runStep(st *Step, vars map[string]any, rec *RepeatRecord, tools map[string]string, serves *[]*serveProc) error {
	if !stepEnabled(st, vars) {
		rec.Steps[st.ID] = &StepRecord{Skipped: true}
		return nil
	}
	argv := make([]string, len(st.Run))
	for i, a := range st.Run {
		s, err := substString(a, vars)
		if err != nil {
			return fmt.Errorf("step %s: %w", st.ID, err)
		}
		argv[i] = s
	}
	if p, ok := tools[argv[0]]; ok {
		argv[0] = p
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = os.Environ()
	for k, v := range st.Env {
		s, err := substString(v, vars)
		if err != nil {
			return fmt.Errorf("step %s env %s: %w", st.ID, k, err)
		}
		cmd.Env = append(cmd.Env, k+"="+s)
	}

	out := &safeBuf{}
	logPath, _ := substString("${dir}/"+st.ID+".log", vars)
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	closers := []io.Closer{logFile}
	handedOff := false
	defer func() {
		if !handedOff {
			closeAll(closers)
		}
	}()
	sink := io.MultiWriter(out, logFile)
	cmd.Stderr = sink
	if st.Stdout != "" {
		p, err := substString(st.Stdout, vars)
		if err != nil {
			return fmt.Errorf("step %s: %w", st.ID, err)
		}
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		cmd.Stdout = io.MultiWriter(f, out)
	} else {
		cmd.Stdout = sink
	}

	srec := &StepRecord{Captures: map[string]string{}}
	rec.Steps[st.ID] = srec
	start := time.Now()

	if st.Serve {
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("step %s: %v", st.ID, err)
		}
		sp := &serveProc{step: st, cmd: cmd, out: out, closers: closers, done: make(chan struct{})}
		go func() {
			sp.waitErr = cmd.Wait()
			close(sp.done)
		}()
		re := regexp.MustCompile(st.Ready)
		ready := func() bool {
			m := re.FindStringSubmatch(out.String())
			if m == nil {
				return false
			}
			if len(m) > 1 {
				name := st.ReadyVar
				if name == "" {
					name = "addr"
				}
				vars[name] = m[1]
				srec.Captures[name] = m[1]
			}
			return true
		}
		deadline := time.NewTimer(30 * time.Second)
		defer deadline.Stop()
		poll := time.NewTicker(25 * time.Millisecond)
		defer poll.Stop()
		for !ready() {
			select {
			case <-sp.done:
				// Wait has returned, so the output is complete. A daemon
				// that printed its ready line before exiting goes to the
				// drain, which reports how it exited.
				if !ready() {
					return fmt.Errorf("step %s: daemon exited before matching ready regex %q: %v — see %s", st.ID, st.Ready, sp.waitErr, logPath)
				}
			case <-deadline.C:
				cmd.Process.Kill() //nolint:errcheck
				<-sp.done
				return fmt.Errorf("step %s: daemon never matched ready regex %q", st.ID, st.Ready)
			case <-poll.C:
			}
		}
		srec.WallMS = time.Since(start).Milliseconds()
		handedOff = true
		sp.vars = cloneVars(vars)
		*serves = append(*serves, sp)
		return nil
	}

	runErr := cmd.Run()
	srec.WallMS = time.Since(start).Milliseconds()
	if runErr != nil {
		return fmt.Errorf("step %s (%s): %v — see %s", st.ID, argv[0], runErr, logPath)
	}
	return r.finishStep(st, vars, rec, srec, out.String())
}

// finishStep applies a completed step's captures, metrics, ledger audit, and
// asserts. For serve steps it runs after the drain.
func (r *Runner) finishStep(st *Step, vars map[string]any, rec *RepeatRecord, srec *StepRecord, output string) error {
	for _, c := range st.Captures {
		m := regexp.MustCompile(c.Regex).FindStringSubmatch(output)
		if m == nil || len(m) < 2 {
			return fmt.Errorf("step %s: capture %q matched nothing", st.ID, c.Var)
		}
		vars[c.Var] = m[1]
		srec.Captures[c.Var] = m[1]
	}
	if st.Metrics != "" {
		p, err := substString(st.Metrics, vars)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("step %s metrics: %w", st.ID, err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("step %s metrics %s: %w", st.ID, p, err)
		}
		rec.Metrics[st.ID] = v
	}
	if st.Ledger != nil {
		lr, err := r.auditLedger(st, vars)
		if err != nil {
			return err
		}
		rec.Ledger[st.ID] = lr
	}
	for _, a := range st.Asserts {
		arec, err := evalAssert(&a, vars, nil)
		rec.Asserts = append(rec.Asserts, arec)
		if err != nil {
			return fmt.Errorf("step %s: %w", st.ID, err)
		}
	}
	return nil
}

// auditLedger verifies a step's output file against its journal anchors and
// records the roots — the per-cell tamper-evidence the summary carries.
func (r *Runner) auditLedger(st *Step, vars map[string]any) (*LedgerRecord, error) {
	sub := func(s string) (string, error) {
		if s == "" {
			return "", nil
		}
		return substString(s, vars)
	}
	outPath, err := sub(st.Ledger.Out)
	if err != nil {
		return nil, err
	}
	journal, err := sub(st.Ledger.Journal)
	if err != nil {
		return nil, err
	}
	sidecar, err := sub(st.Ledger.Sidecar)
	if err != nil {
		return nil, err
	}
	stage := st.Ledger.Stage
	if stage == "" {
		stage = "grade"
	}
	rep, err := ledger.VerifyFile(outPath, st.Ledger.Header, journal, stage, sidecar)
	if err != nil {
		return nil, fmt.Errorf("step %s ledger audit: %w", st.ID, err)
	}
	return &LedgerRecord{
		RunRoot: rep.RunRoot, Batches: rep.Batches, Lines: rep.Lines,
		Tail: rep.Tail, Sidecar: rep.Sidecar,
	}, nil
}

// drainServes SIGTERMs every daemon in reverse start order and requires a
// clean exit, then evaluates the serve steps' deferred captures and asserts.
// A nil runner only reaps (the abort path).
func drainServes(serves []*serveProc, rec *RepeatRecord, r *Runner) error {
	var firstErr error
	for i := len(serves) - 1; i >= 0; i-- {
		sp := serves[i]
		sp.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		timeout := time.NewTimer(30 * time.Second)
		var waitErr error
		select {
		case <-sp.done:
			waitErr = sp.waitErr
		case <-timeout.C:
			sp.cmd.Process.Kill() //nolint:errcheck
			waitErr = fmt.Errorf("drain timed out")
			<-sp.done
		}
		timeout.Stop()
		closeAll(sp.closers)
		if r == nil {
			continue
		}
		if waitErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("step %s: daemon exited dirty after SIGTERM: %v", sp.step.ID, waitErr)
			continue
		}
		srec := rec.Steps[sp.step.ID]
		if err := r.finishStep(sp.step, sp.vars, rec, srec, sp.out.String()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func closeAll(closers []io.Closer) {
	for _, c := range closers {
		c.Close() //nolint:errcheck
	}
}

func cloneVars(vars map[string]any) map[string]any {
	out := make(map[string]any, len(vars))
	for k, v := range vars {
		out[k] = v
	}
	return out
}

// WriteJSON writes the summary with a trailing newline.
func (res *Result) WriteJSON(path string) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteCSV writes the flat per-(cell, repeat, step) record: one row per
// executed step, with its wall time and the step's audited run root when a
// ledger check ran.
func (res *Result) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"grid", "cell", "repeat", "step", "wall_ms", "run_root"}); err != nil {
		return err
	}
	for _, c := range res.Cells {
		for _, rep := range c.Repeats {
			ids := make([]string, 0, len(rep.Steps))
			for id := range rep.Steps {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				sr := rep.Steps[id]
				if sr.Skipped {
					continue
				}
				root := ""
				if lr, ok := rep.Ledger[id]; ok {
					root = lr.RunRoot
				}
				if err := w.Write([]string{
					res.Grid, c.Name, strconv.Itoa(rep.Repeat), id,
					strconv.FormatInt(sr.WallMS, 10), root,
				}); err != nil {
					return err
				}
			}
		}
	}
	w.Flush()
	return w.Error()
}
