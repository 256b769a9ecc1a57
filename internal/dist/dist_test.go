package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

// testLine is the deterministic record rank r emits: a pure function of the
// rank, so re-running a lease reproduces it bit-for-bit.
func testLine(rank int) []byte {
	return []byte(fmt.Sprintf(`{"rank":%d,"v":%d}`, rank, rank*rank+7))
}

// testRunner emits a line for every rank divisible by mod (mod 1 = dense
// output) and tallies ranks and lines per lease.
func testRunner(mod int) RangeRunner {
	return func(ctx context.Context, lo, hi int, emit func(rank int, line []byte) error) (map[string]int64, error) {
		lines := int64(0)
		for rank := lo; rank < hi; rank++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var line []byte
			if rank%mod == 0 {
				line = testLine(rank)
				lines++
			}
			if err := emit(rank, line); err != nil {
				return nil, err
			}
		}
		return map[string]int64{"ranks": int64(hi - lo), "lines": lines}, nil
	}
}

// after runs runner once ready is closed. A fault test gives every worker
// but the faulty one this runner, so the faulty worker is sure to hold a
// lease: otherwise a fast worker can finish every lease before the faulty
// one says hello, and the fault never happens.
func after(ready <-chan struct{}, runner RangeRunner) RangeRunner {
	return func(ctx context.Context, lo, hi int, emit func(rank int, line []byte) error) (map[string]int64, error) {
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return runner(ctx, lo, hi, emit)
	}
}

// expectOutput is the byte stream a single-process run over [resume, total)
// would produce.
func expectOutput(resume, total, mod int) string {
	var sb strings.Builder
	for rank := resume; rank < total; rank++ {
		if rank%mod == 0 {
			sb.Write(testLine(rank))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// pipeWorker is one in-process worker instance over io.Pipes.
type pipeWorker struct {
	toWorker   *io.PipeWriter
	fromWorker *io.PipeReader
	cancel     context.CancelFunc
}

func (p *pipeWorker) Read(b []byte) (int, error)  { return p.fromWorker.Read(b) }
func (p *pipeWorker) Write(b []byte) (int, error) { return p.toWorker.Write(b) }

func (p *pipeWorker) Kill() {
	p.cancel()
	p.toWorker.CloseWithError(io.ErrClosedPipe)
	p.fromWorker.CloseWithError(io.ErrClosedPipe)
}

func (p *pipeWorker) Close() error {
	p.cancel()
	p.toWorker.Close()
	p.fromWorker.Close()
	return nil
}

// pipeLauncher runs Serve in a goroutine per instance — the in-process
// stand-in for fork/exec that lets tests inject per-instance behaviour.
type pipeLauncher struct {
	// setup builds the instance's runner; receives (slot, spawn).
	setup func(slot, spawn int) Setup
	wg    sync.WaitGroup
}

func (l *pipeLauncher) Start(ctx context.Context, slot, spawn int) (WorkerConn, error) {
	inR, inW := io.Pipe()   // coordinator -> worker
	outR, outW := io.Pipe() // worker -> coordinator
	wctx, cancel := context.WithCancel(context.Background())
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		Serve(wctx, inR, outW, l.setup(slot, spawn)) //nolint:errcheck
		outW.Close()
	}()
	return &pipeWorker{toWorker: inW, fromWorker: outR, cancel: cancel}, nil
}

func plainSetup(runner RangeRunner) func(slot, spawn int) Setup {
	return func(_, _ int) Setup {
		return func(json.RawMessage) (RangeRunner, *obs.Registry, error) {
			return runner, nil, nil
		}
	}
}

// TestDistributedByteIdentity: the merged output of a 4-worker run equals
// the serial byte stream, for dense and sparse sinks, and lease tallies
// fold exactly once.
func TestDistributedByteIdentity(t *testing.T) {
	for _, mod := range []int{1, 3} {
		launcher := &pipeLauncher{setup: plainSetup(testRunner(mod))}
		var out strings.Builder
		res, err := Run(context.Background(), Config{
			Workers: 4, Total: 1000, LeaseSize: 37, Out: &out,
			SinkStage: "test", Launch: launcher,
		})
		if err != nil {
			t.Fatalf("mod %d: %v", mod, err)
		}
		if want := expectOutput(0, 1000, mod); out.String() != want {
			t.Fatalf("mod %d: output differs from serial run (%d vs %d bytes)", mod, out.Len(), len(want))
		}
		if res.Tallies["ranks"] != 1000 {
			t.Fatalf("mod %d: ranks tally = %d, want 1000", mod, res.Tallies["ranks"])
		}
		launcher.wg.Wait()
	}
}

// waitGroupOrFail waits for wg, failing the test instead of hanging when a
// worker goroutine never exits.
func waitGroupOrFail(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after the run returned", what)
	}
}

// settleGoroutines waits for the goroutine count to fall back to base; the
// last exits (pipe closers, context AfterFuncs) may trail the run briefly.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the run, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLateHelloWorkerReleased: a worker whose hello arrives only after the
// last lease retired never joins the fleet. Run must still close its
// connection and wait for its manager, so the worker's Serve ends instead
// of waiting for a lease forever.
func TestLateHelloWorkerReleased(t *testing.T) {
	base := runtime.NumGoroutine()
	late := make(chan struct{})
	launcher := &pipeLauncher{setup: func(slot, spawn int) Setup {
		return func(json.RawMessage) (RangeRunner, *obs.Registry, error) {
			if slot == 3 {
				<-late
			}
			return testRunner(1), nil, nil
		}
	}}
	var out strings.Builder
	if _, err := Run(context.Background(), Config{
		Workers: 4, Total: 300, LeaseSize: 37, Out: &out,
		SinkStage: "test", Launch: launcher,
	}); err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, 300, 1); out.String() != want {
		t.Fatalf("output differs from serial run (%d vs %d bytes)", out.Len(), len(want))
	}
	close(late)
	waitGroupOrFail(t, &launcher.wg, "late worker")
	settleGoroutines(t, base)
}

// TestByteIdentityNoLeak repeats the byte-identity case and checks that
// every run returns the goroutine count to its baseline: no manager, worker
// or deadline ticker outlives Run.
func TestByteIdentityNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		launcher := &pipeLauncher{setup: plainSetup(testRunner(1))}
		var out strings.Builder
		if _, err := Run(context.Background(), Config{
			Workers: 4, Total: 1000, LeaseSize: 37, Out: &out,
			SinkStage: "test", Launch: launcher,
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if want := expectOutput(0, 1000, 1); out.String() != want {
			t.Fatalf("run %d: output differs from serial run", i)
		}
		waitGroupOrFail(t, &launcher.wg, "workers")
		settleGoroutines(t, base)
	}
}

// TestWorkerDeathReassignsLease: a worker that dies mid-lease (simulated
// kill -9: its wire closes without a done) loses only wall time — the lease
// is reassigned, no rank is lost or duplicated, and the output is still
// byte-identical.
func TestWorkerDeathReassignsLease(t *testing.T) {
	var killed atomic.Bool
	died := make(chan struct{})
	launcher := &pipeLauncher{}
	launcher.setup = func(slot, spawn int) Setup {
		return func(json.RawMessage) (RangeRunner, *obs.Registry, error) {
			runner := after(died, testRunner(1))
			if slot == 0 && spawn == 0 {
				// First instance of worker 0: die abruptly partway into the
				// first lease, after some lines are already streamed.
				return func(ctx context.Context, lo, hi int, emit func(int, []byte) error) (map[string]int64, error) {
					for rank := lo; rank < hi; rank++ {
						if rank-lo == 5 && killed.CompareAndSwap(false, true) {
							close(died)
							return nil, io.ErrUnexpectedEOF // Serve ends; wire closes without a done
						}
						if err := emit(rank, testLine(rank)); err != nil {
							return nil, err
						}
					}
					return map[string]int64{"ranks": int64(hi - lo)}, nil
				}, nil, nil
			}
			return runner, nil, nil
		}
	}
	reg := obs.NewRegistry()
	var out strings.Builder
	res, err := Run(context.Background(), Config{
		Workers: 2, Total: 400, LeaseSize: 50, Out: &out,
		SinkStage: "test", Launch: launcher, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, 400, 1); out.String() != want {
		t.Fatalf("output differs after worker death (%d vs %d bytes)", out.Len(), len(want))
	}
	if got := reg.Counter("dist.lease_failed").Value() + reg.Counter("dist.lease_reassigned").Value(); got == 0 {
		t.Fatalf("expected a lease retry after worker death, counters: failed=%d reassigned=%d respawns=%d",
			reg.Counter("dist.lease_failed").Value(), reg.Counter("dist.lease_reassigned").Value(), res.Respawns)
	}
	launcher.wg.Wait()
}

// TestWedgedWorkerLeaseExpires: a worker that stops making progress without
// dying is killed when its lease deadline (on the injected clock) passes;
// the lease is reassigned and the run completes byte-identically.
func TestWedgedWorkerLeaseExpires(t *testing.T) {
	clock := faults.NewFakeClock(time.Unix(0, 0))
	granted := make(chan struct{})
	var wedged atomic.Bool
	launcher := &pipeLauncher{}
	launcher.setup = func(slot, spawn int) Setup {
		return func(json.RawMessage) (RangeRunner, *obs.Registry, error) {
			if slot == 0 && spawn == 0 {
				return func(ctx context.Context, lo, hi int, emit func(int, []byte) error) (map[string]int64, error) {
					if wedged.CompareAndSwap(false, true) {
						close(granted)
						<-ctx.Done() // wedge until killed
						return nil, ctx.Err()
					}
					return testRunner(1)(ctx, lo, hi, emit)
				}, nil, nil
			}
			return after(granted, testRunner(1)), nil, nil
		}
	}
	reg := obs.NewRegistry()
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{
			Workers: 2, Total: 300, LeaseSize: 60, Out: &out,
			SinkStage: "test", Launch: launcher, Metrics: reg,
			Clock: clock, LeaseTimeout: time.Minute, Poll: 2 * time.Millisecond,
		})
		done <- err
	}()
	// Wait until the wedged worker holds its lease, then expire it on the
	// fake clock; the wall-time poll ticker notices.
	<-granted
	time.Sleep(20 * time.Millisecond)
	clock.Advance(2 * time.Minute)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, 300, 1); out.String() != want {
		t.Fatalf("output differs after lease expiry (%d vs %d bytes)", out.Len(), len(want))
	}
	if reg.Counter("dist.lease_reassigned").Value() == 0 {
		t.Fatal("expected dist.lease_reassigned > 0")
	}
	launcher.wg.Wait()
}

// TestCoordinatorCrashResume: a run whose sink fails mid-stream (the
// coordinator-crash stand-in) resumes from the checkpoint journal and
// appends exactly the missing records — final bytes identical to an
// uninterrupted run.
func TestCoordinatorCrashResume(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.jsonl")
	ckpt := filepath.Join(dir, "ckpt")
	const total = 500

	// First run: the output file starts failing after 123 lines.
	f, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j, err := pipeline.OpenJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	launcher := &pipeLauncher{setup: plainSetup(testRunner(1))}
	_, err = Run(context.Background(), Config{
		Workers: 3, Total: total, LeaseSize: 40,
		Out:     &failingWriter{w: f, failAfter: 123},
		Journal: j, SinkStage: "test", Launch: launcher,
	})
	if err == nil {
		t.Fatal("expected the first run to fail at the broken sink")
	}
	f.Close()
	j.Close()
	launcher.wg.Wait()

	// Resume exactly like the commands do: checkpoint, reconcile the file,
	// append the rest.
	j2, resume, err := pipeline.Checkpoint(ckpt, "test")
	if err != nil {
		t.Fatal(err)
	}
	resume, err = pipeline.RecoverOutput(outPath, 0, j2, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resume == 0 || resume > 123 {
		t.Fatalf("resume rank %d, want in (0, 123]", resume)
	}
	f2, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	launcher2 := &pipeLauncher{setup: plainSetup(testRunner(1))}
	if _, err := Run(context.Background(), Config{
		Workers: 3, Resume: resume, Total: total, LeaseSize: 40,
		Out: f2, Journal: j2, SinkStage: "test", Launch: launcher2,
	}); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	j2.Close()
	launcher2.wg.Wait()

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, total, 1); string(got) != want {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The journal carries the lease audit trail interleaved with the
	// watermarks.
	leases, err := pipeline.ReadLeases(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	grants := 0
	for _, lr := range leases {
		if lr.Event == "grant" {
			grants++
		}
	}
	if grants == 0 {
		t.Fatal("journal has no lease grant records")
	}
}

// failingWriter forwards writes to w and fails after failAfter writes.
type failingWriter struct {
	w         io.Writer
	failAfter int
	n         int
}

func (fw *failingWriter) Write(b []byte) (int, error) {
	if fw.n >= fw.failAfter {
		return 0, io.ErrClosedPipe
	}
	fw.n++
	return fw.w.Write(b)
}

// TestTCPLauncher: the same protocol over a TCP listener with workers
// dialing back — remote workers are a config change.
func TestTCPLauncher(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	l.Spawn = func(slot, spawn int) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeTCP(context.Background(), l.Addr(), func(json.RawMessage) (RangeRunner, *obs.Registry, error) { //nolint:errcheck
				return testRunner(1), nil, nil
			})
		}()
		return nil
	}
	var out strings.Builder
	if _, err := Run(context.Background(), Config{
		Workers: 3, Total: 500, LeaseSize: 64, Out: &out,
		SinkStage: "test", Launch: l,
	}); err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, 500, 1); out.String() != want {
		t.Fatalf("TCP output differs (%d vs %d bytes)", out.Len(), len(want))
	}
	wg.Wait()
}

// TestResumeWindowEmpty: Resume >= Total returns an empty result without
// launching anything.
func TestResumeWindowEmpty(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Workers: 2, Resume: 10, Total: 10, SinkStage: "test",
		Launch: &pipeLauncher{setup: plainSetup(testRunner(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassigned != 0 || len(res.Tallies) != 0 {
		t.Fatalf("expected empty result, got %+v", res)
	}
}
