package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
)

// source over [0, n): emits rank as the value.
func intSource(ctx context.Context, opts Options, n int) *Flow[int] {
	return depthSource(ctx, opts, n, 4)
}

// depthSource is intSource at source depth queue: depth 4 hands off blocks
// of at most 2 ranks, the default depth (queue <= 0) blocks of up to 32.
func depthSource(ctx context.Context, opts Options, n, queue int) *Flow[int] {
	return From(ctx, opts, "src", queue, func(rank int) (int, bool, error) {
		return rank, rank < n, nil
	})
}

// identity is a stage function that passes its input through.
func identity(_ context.Context, _, _ int, v int) (int, error) { return v, nil }

// collect drains the flow, appending every value in rank order to a slice.
func collect[T any](f *Flow[T]) ([]T, error) {
	var out []T
	err := f.Drain(func(_ int, v T) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// TestOrderPreserved: randomized per-item delays must not reorder the sink's
// view — the reorder buffer releases strictly by rank — for short blocks,
// default-depth blocks, and a two-stage chain.
func TestOrderPreserved(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	for _, c := range []struct {
		name          string
		depth, stages int
	}{{"depth4", 4, 1}, {"default", 0, 1}, {"default-2stage", 0, 2}} {
		t.Run(c.name, func(t *testing.T) {
			f := depthSource(context.Background(), Options{}, n, c.depth)
			for s := 0; s < c.stages; s++ {
				f = Through(f, Stage[int, int]{
					Name: fmt.Sprint("jitter", s), Workers: 8,
					Fn: func(_ context.Context, _, rank int, v int) (int, error) {
						time.Sleep(delays[rank])
						return v * 3, nil
					},
				})
			}
			got, err := collect(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("collected %d items, want %d", len(got), n)
			}
			scale := 1
			for s := 0; s < c.stages; s++ {
				scale *= 3
			}
			for i, v := range got {
				if v != i*scale {
					t.Fatalf("rank %d: got %d, want %d", i, v, i*scale)
				}
			}
		})
	}
}

// TestWorkerAndQueueInvariance: the collected output is bit-identical for
// any (workers, queue) combination, for short and default-depth source
// blocks, through one stage and through two.
func TestWorkerAndQueueInvariance(t *testing.T) {
	const n = 300
	runWith := func(depth, stages, workers, queue int) []int {
		f := depthSource(context.Background(), Options{}, n, depth)
		f = Through(f, Stage[int, int]{
			Name: "sq", Workers: workers, Queue: queue,
			Fn: func(_ context.Context, _, rank int, v int) (int, error) {
				return v*v + rank, nil
			},
		})
		if stages == 2 {
			f = Through(f, Stage[int, int]{
				Name: "mix", Workers: workers, Queue: queue,
				Fn: func(_ context.Context, _, rank int, v int) (int, error) {
					return v ^ (rank << 20), nil
				},
			})
		}
		out, err := collect(f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, stages := range []int{1, 2} {
		want := runWith(4, stages, 1, 1)
		for _, depth := range []int{4, 0} {
			for _, cfg := range [][2]int{{1, 1}, {2, 1}, {4, 8}, {16, 2}, {64, 64}} {
				got := runWith(depth, stages, cfg[0], cfg[1])
				if len(got) != len(want) {
					t.Fatalf("stages=%d depth=%d workers=%d queue=%d: %d items, want %d",
						stages, depth, cfg[0], cfg[1], len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stages=%d depth=%d workers=%d queue=%d: rank %d = %d, want %d",
							stages, depth, cfg[0], cfg[1], i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBoundedInFlight: with one stalled rank, the number of items past the
// source but not yet retired must stay O(workers + queue), never O(n) — the
// memory bound the streaming refactor exists for.
func TestBoundedInFlight(t *testing.T) {
	const (
		n       = 2000
		workers = 4
		queue   = 4
	)
	release := make(chan struct{})
	var inFlight, maxInFlight atomic.Int64
	f := From(context.Background(), Options{}, "src", queue, func(rank int) (int, bool, error) {
		if rank >= n {
			return 0, false, nil
		}
		cur := inFlight.Add(1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		return rank, true, nil
	})
	g := Through(f, Stage[int, int]{
		Name: "stall", Workers: workers, Queue: queue,
		Fn: func(_ context.Context, _, rank int, v int) (int, error) {
			if rank == 0 {
				<-release // rank 0 blocks the whole reorder buffer
			}
			return v, nil
		},
	})
	done := make(chan error, 1)
	var retired atomic.Int64
	go func() {
		done <- g.Drain(func(int, int) error {
			retired.Add(1)
			inFlight.Add(-1)
			return nil
		})
	}()
	// Let the pipeline fill to its bound, then release the stalled rank.
	time.Sleep(50 * time.Millisecond)
	if retired.Load() != 0 {
		t.Fatal("items retired while rank 0 was stalled")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if retired.Load() != n {
		t.Fatalf("retired %d, want %d", retired.Load(), n)
	}
	// Generous bound: every hop's buffer plus every worker plus the reorder
	// slack. The point is it must be far below n.
	bound := int64(4*(workers+queue) + 2*workers + 8)
	if got := maxInFlight.Load(); got > bound {
		t.Errorf("max in-flight = %d exceeds bound %d (n=%d)", got, bound, n)
	}
}

// TestStageErrorFailsRun: a stage error cancels the run and surfaces as
// Drain's return value.
func TestStageErrorFailsRun(t *testing.T) {
	boom := errors.New("boom at rank 37")
	f := intSource(context.Background(), Options{}, 10000)
	g := Through(f, Stage[int, int]{
		Name: "explode", Workers: 4,
		Fn: func(_ context.Context, _, rank int, v int) (int, error) {
			if rank == 37 {
				return 0, boom
			}
			return v, nil
		},
	})
	_, err := collect(g)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestSinkErrorFailsRun: an error from the sink stops the pipeline too.
func TestSinkErrorFailsRun(t *testing.T) {
	stop := errors.New("sink full")
	f := intSource(context.Background(), Options{}, 10000)
	g := Through(f, Stage[int, int]{Name: "id", Workers: 4,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v, nil }})
	err := g.Drain(func(rank int, _ int) error {
		if rank == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
}

// TestPanicPropagates: a worker panic is re-raised on the Drain goroutine.
func TestPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic swallowed")
		}
		if fmt.Sprint(r) != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	f := intSource(context.Background(), Options{}, 1000)
	g := Through(f, Stage[int, int]{
		Name: "panic", Workers: 4,
		Fn: func(_ context.Context, _, rank int, v int) (int, error) {
			if rank == 123 {
				panic("kaboom")
			}
			return v, nil
		},
	})
	_, _ = collect(g)
}

// TestCancelStopsRun: cancelling the parent context stops the pipeline
// promptly with the context's error.
func TestCancelStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := intSource(ctx, Options{}, 1<<30) // effectively unbounded
	g := Through(f, Stage[int, int]{Name: "id", Workers: 4,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v, nil }})
	var n atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- g.Drain(func(int, int) error { n.Add(1); return nil })
	}()
	for n.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not stop after cancellation")
	}
}

// TestSourceLatencyFakeClock: the source's latency histogram is its busy
// time in next, observed once per hand-off. next advances a fake clock 1ms
// per item and nothing else advances it, so the histogram sums to exactly n
// ms at any block size, and its count is the number of hand-offs: a stage
// keeps the source's blocks and journals each block's last rank, so at
// Every 1 the journal holds one stage line per hand-off. At depth 2 every
// item is its own hand-off; at the default depth a hand-off carries 1 to 32.
func TestSourceLatencyFakeClock(t *testing.T) {
	const n = 40
	for _, queue := range []int{2, 0} {
		clock := faults.NewFakeClock(time.Unix(0, 0))
		reg := obs.NewRegistry()
		reg.Now = clock.Now
		path := filepath.Join(t.TempDir(), "j")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Every = 1
		f := From(context.Background(), Options{Name: "sc", Metrics: reg, Journal: j}, "src", queue, func(rank int) (int, bool, error) {
			if rank >= n {
				return 0, false, nil
			}
			clock.Advance(time.Millisecond)
			return rank, true, nil
		})
		if _, err := collect(Through(f, Stage[int, int]{Name: "id", Workers: 2, Fn: identity})); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		handOffs := int64(strings.Count(string(data), `{"stage":"id","rank":`))
		if queue == 2 && handOffs != n {
			t.Fatalf("depth 2: %d hand-offs journaled, want %d", handOffs, n)
		}
		snap := reg.Snapshot()
		h := snap.Histograms["sc.src.latency"]
		if want := int64(n * time.Millisecond); h.Sum != want {
			t.Errorf("queue %d: sc.src.latency sum = %v, want exactly %v", queue, time.Duration(h.Sum), time.Duration(want))
		}
		if h.Count != handOffs {
			t.Errorf("queue %d: sc.src.latency count = %d, want %d (one per hand-off)", queue, h.Count, handOffs)
		}
		if c := snap.Counters["sc.src.items"]; c != n {
			t.Errorf("queue %d: sc.src.items = %d, want %d", queue, c, n)
		}
	}
}

// TestSourceBlockedTimeExcluded: a source blocked on a full hop is not
// busy. The sink takes 2ms per item, so the source waits about 100ms on
// its hop over 50 items while next itself returns at once.
func TestSourceBlockedTimeExcluded(t *testing.T) {
	const n = 50
	reg := obs.NewRegistry()
	err := intSource(context.Background(), Options{Metrics: reg}, n).Drain(func(int, int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("pipeline.src.latency", obs.LatencyBuckets)
	if h.Count() == 0 {
		t.Fatal("source latency never observed")
	}
	if busy := time.Duration(h.Sum()); busy >= 25*time.Millisecond {
		t.Fatalf("source busy %v of a run blocked ~100ms on its hop; blocked time counted as busy", busy)
	}
}

// TestStageMetrics: items counters, latency histograms, and queue gauges are
// published under the run's prefix.
func TestStageMetrics(t *testing.T) {
	const n = 200
	reg := obs.NewRegistry()
	f := intSource(context.Background(), Options{Metrics: reg, Name: "tp"}, n)
	g := Through(f, Stage[int, int]{Name: "work", Workers: 4,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v, nil }})
	if _, err := collect(g); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c := snap.Counters["tp.src.items"]; c != n {
		t.Errorf("tp.src.items = %d, want %d", c, n)
	}
	if h := snap.Histograms["tp.src.latency"]; h.Count == 0 || h.Count > n {
		t.Errorf("tp.src.latency count = %d, want one per hand-off, within [1, %d]", h.Count, n)
	}
	if c := snap.Counters["tp.work.items"]; c != n {
		t.Errorf("tp.work.items = %d, want %d", c, n)
	}
	if h := snap.Histograms["tp.work.latency"]; h.Count != n {
		t.Errorf("tp.work.latency count = %d, want %d", h.Count, n)
	}
	if _, ok := snap.Gauges["tp.work.queue"]; !ok {
		t.Error("tp.work.queue gauge missing")
	}
}

// TestOnWorkerHooks: OnWorker fires once per worker, retirements run at
// worker exit, and hooks see the correct worker indices.
func TestOnWorkerHooks(t *testing.T) {
	const workers = 5
	var started, retired atomic.Int64
	f := intSource(context.Background(), Options{}, 1000)
	g := Through(f, Stage[int, int]{
		Name: "hooked", Workers: workers,
		OnWorker: func(worker int) func() {
			if worker < 0 || worker >= workers {
				t.Errorf("worker index %d out of range", worker)
			}
			started.Add(1)
			return func() { retired.Add(1) }
		},
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v, nil },
	})
	if _, err := collect(g); err != nil {
		t.Fatal(err)
	}
	if started.Load() != workers || retired.Load() != workers {
		t.Fatalf("hooks: started=%d retired=%d, want %d each", started.Load(), retired.Load(), workers)
	}
}

// TestTwoStageChain: stages compose; both reorder buffers hold.
func TestTwoStageChain(t *testing.T) {
	const n = 400
	f := intSource(context.Background(), Options{}, n)
	g := Through(f, Stage[int, int]{Name: "a", Workers: 7,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) { return v + 1, nil }})
	h := Through(g, Stage[int, string]{Name: "b", Workers: 3,
		Fn: func(_ context.Context, _, _ int, v int) (string, error) { return fmt.Sprint(v * 2), nil }})
	got, err := collect(h)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if want := fmt.Sprint((i + 1) * 2); s != want {
			t.Fatalf("rank %d: got %q want %q", i, s, want)
		}
	}
}

// TestStageLatencyFakeClock: stage latency must be measured on the metrics
// registry's injectable clock, not the wall clock. With a FakeClock that the
// stage Fn advances by a fixed amount per item, the latency histogram records
// exactly that amount for every item — count, sum, and quantiles are all
// asserted to the nanosecond.
func TestStageLatencyFakeClock(t *testing.T) {
	const (
		n    = 8
		step = 7 * time.Millisecond
	)
	clock := faults.NewFakeClock(time.Date(2024, 3, 15, 12, 0, 0, 0, time.UTC))
	reg := obs.NewRegistry()
	reg.Now = clock.Now

	f := intSource(context.Background(), Options{Name: "fc", Metrics: reg}, n)
	g := Through(f, Stage[int, int]{
		// A single worker keeps the clock advances strictly interleaved with
		// the start/stop reads, so every observed latency is exactly one step.
		Name: "tick", Workers: 1,
		Fn: func(_ context.Context, _, _ int, v int) (int, error) {
			clock.Advance(step)
			return v, nil
		},
	})
	if _, err := collect(g); err != nil {
		t.Fatal(err)
	}

	h := reg.Histogram("fc.tick.latency", obs.LatencyBuckets)
	if h.Count() != n {
		t.Fatalf("latency count = %d, want %d", h.Count(), n)
	}
	if want := int64(n) * int64(step); h.Sum() != want {
		t.Fatalf("latency sum = %d ns, want exactly %d ns", h.Sum(), want)
	}
}

// TestSlowSourceNotBatched: a source that cannot produce rank 1 until the
// sink has seen rank 0 must still finish — the source hands a block on at
// once when the hop downstream is empty, so no consumer waits on a partial
// block.
func TestSlowSourceNotBatched(t *testing.T) {
	sunk := make(chan struct{})
	f := From(context.Background(), Options{}, "slow", 0, func(rank int) (int, bool, error) {
		if rank == 1 {
			select {
			case <-sunk:
			case <-time.After(5 * time.Second):
				return 0, false, errors.New("rank 0 never reached the sink while the source waited")
			}
		}
		return rank, rank < 4, nil
	})
	g := Through(f, Stage[int, int]{Name: "id", Workers: 2, Fn: identity})
	err := g.Drain(func(rank int, _ int) error {
		if rank == 0 {
			close(sunk)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoGoroutineLeak: every exit path of a run — a full drain, Collect, a
// stage error, a sink error, a recovered worker panic, a parent cancel
// mid-run and a resumed run — leaves no pipeline goroutine behind.
func TestNoGoroutineLeak(t *testing.T) {
	boom := errors.New("boom")
	// chain runs a default-depth source through two stages; fn is the first
	// stage's function.
	chain := func(ctx context.Context, opts Options, n int, fn func(context.Context, int, int, int) (int, error)) *Flow[int] {
		f := Through(depthSource(ctx, opts, n, 0), Stage[int, int]{Name: "a", Workers: 4, Fn: fn})
		return Through(f, Stage[int, int]{Name: "b", Workers: 3, Fn: identity})
	}
	failAt := func(at int, fail func() error) func(context.Context, int, int, int) (int, error) {
		return func(_ context.Context, _, rank, v int) (int, error) {
			if rank == at {
				return 0, fail()
			}
			return v, nil
		}
	}
	none := func(int, int) error { return nil }
	paths := []struct {
		name string
		run  func() error
	}{
		{"drain", func() error {
			return chain(context.Background(), Options{}, 1000, identity).Drain(none)
		}},
		{"collect", func() error {
			_, err := collect(chain(context.Background(), Options{}, 1000, identity))
			return err
		}},
		{"stage error", func() error {
			err := chain(context.Background(), Options{}, 10000, failAt(37, func() error { return boom })).Drain(none)
			if !errors.Is(err, boom) {
				return fmt.Errorf("err = %v, want %v", err, boom)
			}
			return nil
		}},
		{"sink error", func() error {
			err := chain(context.Background(), Options{}, 10000, identity).Drain(func(rank, _ int) error {
				if rank == 10 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				return fmt.Errorf("err = %v, want %v", err, boom)
			}
			return nil
		}},
		{"worker panic", func() (err error) {
			defer func() {
				if recover() == nil {
					err = errors.New("panic swallowed")
				}
			}()
			_, _ = collect(chain(context.Background(), Options{}, 10000, failAt(123, func() error { panic("kaboom") })))
			return nil
		}},
		{"parent cancel", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := chain(ctx, Options{}, 1<<30, identity).Drain(func(rank, _ int) error {
				if rank == 100 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"resume", func() error {
			got, err := collect(chain(context.Background(), Options{Resume: 100}, 1000, identity))
			if err == nil && (len(got) != 900 || got[0] != 100) {
				err = fmt.Errorf("collected %d items from %v, want ranks [100, 1000)", len(got), got[:min(1, len(got))])
			}
			return err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := p.run(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, baseline %d:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// goroutineRecords returns the debug=1 goroutine profile's records: one
// per distinct stack and label set, its "# labels:" line and its frames.
func goroutineRecords(t *testing.T) []string {
	t.Helper()
	var buf strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return strings.Split(buf.String(), "\n\n")
}

// hasRecord reports whether some record carries exactly the label set
// labels and a frame naming fn.
func hasRecord(records []string, labels, fn string) bool {
	for _, rec := range records {
		if strings.Contains(rec, "\n# labels: "+labels+"\n") && strings.Contains(rec, fn) {
			return true
		}
	}
	return false
}

// TestStageLabels: the source, a stage's workers and its releaser run under
// stage=<run>.<stage>, added to the labels of the flow's context, and the
// sink keeps its caller's labels. The profile is read while the stage's
// first item is blocked in Fn, so every goroutine is parked.
func TestStageLabels(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	errStop := errors.New("stop")
	done := make(chan error, 1)
	go pprof.Do(context.Background(), pprof.Labels("caller", "test"), func(ctx context.Context) {
		src := From(ctx, Options{Name: "labelled"}, "source", 4, func(rank int) (int, bool, error) {
			return rank, true, nil
		})
		blocked := Through(src, Stage[int, int]{Name: "blocked", Workers: 2, Fn: func(_ context.Context, _, rank, v int) (int, error) {
			if rank == 0 {
				close(entered)
				<-release
			}
			return v, nil
		}})
		done <- blocked.Drain(func(rank, _ int) error {
			if rank == 10 {
				return errStop
			}
			return nil
		})
	})
	<-entered
	// The other worker runs ahead until the reorder buffer is full, and
	// then the source blocks on its hop.
	var records []string
	want := []struct{ labels, fn string }{
		{`{"caller":"test", "stage":"labelled.blocked"}`, "TestStageLabels.func"},
		{`{"caller":"test", "stage":"labelled.blocked"}`, "pipeline.(*reorder[...]).take"},
		{`{"caller":"test", "stage":"labelled.source"}`, "pipeline.send["},
		{`{"caller":"test"}`, "pipeline.(*Flow[...]).Drain"},
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		records = goroutineRecords(t)
		missing := 0
		for _, w := range want {
			if !hasRecord(records, w.labels, w.fn) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, w := range want {
				if !hasRecord(records, w.labels, w.fn) {
					t.Errorf("no goroutine labelled %s in %s", w.labels, w.fn)
				}
			}
			t.Logf("goroutine profile:\n%s", strings.Join(records, "\n\n"))
			break
		}
	}
	close(release)
	if err := <-done; !errors.Is(err, errStop) {
		t.Fatalf("Drain = %v, want the sink's error", err)
	}
}
