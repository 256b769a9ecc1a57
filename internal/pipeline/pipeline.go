// Package pipeline is the repository's staged-dataflow engine: a Source
// feeding a chain of stages feeding a Sink, every hop a bounded channel, so a
// run over millions of ranks holds O(workers · queue depth) items in memory
// instead of the whole corpus. The population generator, the study
// orchestrator, and the differential-testing harness are all built on it;
// population.Generate and the harness's RunAnalyzed, which the experiments'
// shared population needs, drain it into memory.
//
// The engine keeps the guarantees internal/parallel established:
//
//   - Determinism. Work is identified by a dense rank (0, 1, 2, ...); stage
//     functions derive any randomness from (seed, rank) alone, and a reorder
//     buffer at every stage exit releases results strictly in rank order.
//     The sink therefore observes exactly the serial order, bit-identical
//     for any worker count or queue depth.
//   - Cancellation. Every goroutine watches the run context; cancelling it
//     (or any stage returning an error) drains the whole graph promptly.
//   - Panic propagation. A panic in any stage worker is captured, the run is
//     cancelled, and the panic is re-raised on the goroutine that called
//     Drain — never silently swallowed, never deadlocking the graph.
//
// Backpressure falls out of bounded hops. The unit of hand-off is a block:
// the values of a run of consecutive ranks. Only the source forms blocks —
// it hands one on when it holds max(1, queue/2) items (a run's first blocks
// fewer), or at once whenever the hop downstream is empty, so a fast source
// spreads each hand-off over many items while a slow one still moves one
// item at a time and a consumer never waits on a partial block. Stages keep the source's block
// boundaries. Every hop holds one block, every worker one block, and a
// stage's reorder buffer admits a block only while the items it holds stay
// within workers + queue (the next block to release is always admitted), so
// a stage holds O(workers · queue) items and a slow stage blocks upstream
// workers until the consumer catches up. An attached Journal records the
// last retired rank per stage as a JSONL watermark stream so an interrupted
// run can resume where it stopped, and an attached obs.Registry makes the
// engine the run's stage clock (see Options.Metrics).
//
// Every goroutine the engine starts runs under the runtime/pprof label
// stage=<run>.<stage>, where <run> is Options.Name ("pipeline" when unset),
// set once when the goroutine starts, so a CPU profile splits by stage and
// nothing is paid per item. The labels add to those of the context the flow
// was started with. Drain's sink runs on its caller's goroutine and keeps
// its caller's labels.
package pipeline

import (
	"context"
	"reflect"
	"runtime/pprof"
	"sync"
	"time"

	"chainchaos/internal/obs"
	"chainchaos/internal/parallel"
)

// Options configures a pipeline run (shared by every stage of one Flow).
type Options struct {
	// Name prefixes the run's metric names: pipeline.<stage>.* by default,
	// or <Name>.<stage>.* when set.
	Name string
	// Metrics, when non-nil, instruments the source and every stage, each
	// under its own name: an items counter, an output queue-depth gauge and
	// a latency histogram read on the registry's clock. A stage observes
	// each item's Fn, one clock read per item. The source observes once per
	// hand-off the time spent in next since the previous hand-off returned,
	// two clock reads per hand-off, so time blocked on a full hop is not
	// counted. Each histogram's sum is thus its stage's busy time, the
	// figure obs.Snapshot.PipelineTable prints beside the items counter.
	// Without a registry the engine reads no clock.
	Metrics *obs.Registry
	// Journal, when non-nil, receives per-stage retirement watermarks and
	// provides the resume point.
	Journal *Journal
	// Resume is the first rank the source emits (0 is a full run). Callers
	// resuming from a Journal pass Last(sinkStage)+1.
	Resume int
}

// defaultQueue is the depth, in items, of a source or stage whose queue is
// <= 0.
const defaultQueue = 64

// block is the unit of hand-off between goroutines: the values of the
// consecutive ranks rank, rank+1, ..., rank+len(vals)-1.
type block[T any] struct {
	rank int
	vals []T
}

// buffers is a free list of block buffers: a flow's producer takes its
// buffers here and its consumer returns them, so a run in steady state
// allocates none. The list never holds more buffers than were once in
// flight together.
type buffers[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// spares holds the process's free lists, one *buffers[T] per element type
// T (keyed by its reflect.Type), shared by every run: a process that runs
// many short pipelines — divfuzz runs one per generation — reuses one set
// of buffers instead of allocating a set per run.
var spares sync.Map

// buffersOf returns the free list for element type T.
func buffersOf[T any]() *buffers[T] {
	key := reflect.TypeFor[T]()
	if p, ok := spares.Load(key); ok {
		return p.(*buffers[T])
	}
	p, _ := spares.LoadOrStore(key, new(buffers[T]))
	return p.(*buffers[T])
}

// get returns an empty buffer; a fresh one has room for size values.
func (p *buffers[T]) get(size int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return make([]T, 0, size)
	}
	vals := p.free[n-1]
	p.free = p.free[:n-1]
	return vals
}

// put returns a consumed buffer, cleared so it pins nothing.
func (p *buffers[T]) put(vals []T) {
	clear(vals)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, vals[:0])
}

// run is the shared state of one pipeline execution.
type run struct {
	parent  context.Context // the caller's context; its Err outlives teardown
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), polled without the context's lock
	cancel  context.CancelFunc
	block   int // most items the source puts in one block
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     error
	panicV  any
	panicOK bool
	opts    Options
}

// stopped reports whether the run has been cancelled.
func (r *run) stopped() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// fail records the run's first error and cancels the context. Subsequent
// errors (usually cancellation fallout) are dropped.
func (r *run) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// panicked records a worker panic (first wins) and cancels the run.
func (r *run) panicked(v any) {
	r.mu.Lock()
	if !r.panicOK {
		r.panicOK = true
		r.panicV = v
	}
	r.mu.Unlock()
	r.cancel()
}

// recoverPanic is deferred by every pipeline goroutine: a panic is
// recorded and the run cancelled, to be re-raised by Drain.
func (r *run) recoverPanic() {
	if v := recover(); v != nil {
		r.panicked(v)
	}
}

// finish waits for every goroutine, re-raises a captured panic, and returns
// the run's first error (a recorded failure wins over bare cancellation).
func (r *run) finish() error {
	r.wg.Wait()
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.panicOK {
		panic(r.panicV)
	}
	if r.err != nil {
		return r.err
	}
	// The run context is cancelled as part of normal teardown; only the
	// caller's own cancellation is an error.
	return r.parent.Err()
}

// prefix is the run's name in metric names and profiler labels.
func (r *run) prefix() string {
	if r.opts.Name == "" {
		return "pipeline"
	}
	return r.opts.Name
}

// metricName builds "<run>.<stage>.<metric>", or "" when no registry is
// attached.
func (r *run) metricName(stage, metric string) string {
	if r.opts.Metrics == nil {
		return ""
	}
	return r.prefix() + "." + stage + "." + metric
}

// labels returns the caller's context with the profiler label
// stage=<run>.<stage> added, built once per stage; each of the stage's
// goroutines passes it to pprof.SetGoroutineLabels when it starts.
func (r *run) labels(stage string) context.Context {
	return pprof.WithLabels(r.parent, pprof.Labels("stage", r.prefix()+"."+stage))
}

// send hands b to the one-block hop out, or gives up when the run is
// cancelled. depth is set to the items left queued on the hop.
func send[T any](r *run, out chan<- block[T], b block[T], depth *obs.Gauge) bool {
	n := int64(len(b.vals))
	select {
	case out <- b:
		// A non-empty hop holds exactly the block just sent.
		if len(out) == 0 {
			n = 0
		}
		depth.Set(n)
		return true
	case <-r.done:
		return false
	}
}

// Flow is a pipeline whose last stage emits T values. Extend it with Through
// and terminate it with Drain (each Flow must be terminated exactly once).
type Flow[T any] struct {
	run  *run
	name string // name of the stage that feeds out
	out  <-chan block[T]
	bufs *buffers[T] // out's buffers, returned by the consumer
}

// queueDepth normalizes a queue depth: values <= 0 mean defaultQueue.
func queueDepth(queue int) int {
	if queue > 0 {
		return queue
	}
	return defaultQueue
}

// From starts a Flow: a single source goroutine calls next(rank) for
// rank = opts.Resume, Resume+1, ... and hands the values downstream in
// blocks of consecutive ranks, stopping when next reports done, errors, or
// the run is cancelled. A block is handed on when it holds max(1, queue/2)
// values (the first blocks fewer: 1, 2, 4, ...), or at once when the hop
// downstream is empty; queue <= 0 means 64.
// The source is serial by design — rank order is the pipeline's spine; put
// parallel work in a Through stage.
func From[T any](ctx context.Context, opts Options, name string, queue int, next func(rank int) (T, bool, error)) *Flow[T] {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	r := &run{parent: parent, ctx: ctx, done: ctx.Done(), cancel: cancel, opts: opts, block: max(1, queueDepth(queue)/2)}
	out := make(chan block[T], 1)
	f := &Flow[T]{run: r, name: name, out: out, bufs: buffersOf[T]()}
	reg := opts.Metrics
	items := reg.Counter(r.metricName(name, "items"))
	depth := reg.Gauge(r.metricName(name, "queue"))
	latency := reg.Histogram(r.metricName(name, "latency"), obs.LatencyBuckets)
	labels := r.labels(name)

	r.wg.Add(1)
	go func() {
		pprof.SetGoroutineLabels(labels)
		defer r.wg.Done()
		defer close(out)
		defer r.recoverPanic()
		// handOff sends the block b, observing the time since began (the
		// previous hand-off's return) and restarting the clock after the
		// send, so a send blocked on a full hop is not busy time.
		var began time.Time
		if reg != nil {
			began = reg.Time()
		}
		handOff := func(b block[T]) bool {
			if reg != nil {
				latency.ObserveDuration(reg.Time().Sub(began))
			}
			if !send(r, out, b, depth) {
				return false
			}
			items.Add(int64(len(b.vals)))
			if reg != nil {
				began = reg.Time()
			}
			return true
		}
		b := block[T]{rank: opts.Resume, vals: f.bufs.get(r.block)}
		// The block limit starts at 1 and doubles with each hand-off up to
		// r.block. A worker runs a whole block without yielding, so
		// full-size first blocks would keep the next stage's workers
		// waiting and delay the first record; small ones set every stage
		// running as soon as one-item hand-offs would.
		limit := 1
		for rank := opts.Resume; ; rank++ {
			if r.stopped() {
				return
			}
			v, ok, err := next(rank)
			if err != nil {
				r.fail(err)
				return
			}
			if !ok {
				break
			}
			b.vals = append(b.vals, v)
			if len(b.vals) >= limit || len(out) == 0 {
				if !handOff(b) {
					return
				}
				b = block[T]{rank: rank + 1, vals: f.bufs.get(r.block)}
				limit = min(2*limit, r.block)
			}
		}
		if len(b.vals) == 0 {
			f.bufs.put(b.vals)
		} else {
			handOff(b)
		}
	}()
	return f
}

// Stage is one parallel processing step.
type Stage[In, Out any] struct {
	// Name labels the stage in metrics and journal entries.
	Name string
	// Workers bounds the stage's goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// Queue is the stage's depth in items: its reorder buffer admits a
	// block only while it would hold at most Workers + Queue items (the
	// next block to release is always admitted); <= 0 means 64.
	Queue int
	// Fn processes one item. worker identifies the executing worker
	// (0 <= worker < Workers) so stages can keep per-worker scratch state;
	// rank is the item's position in the stream. Fn must be deterministic in
	// (rank, in) — never in worker or call order.
	Fn func(ctx context.Context, worker, rank int, in In) (Out, error)
	// OnWorker, when non-nil, is called once per worker before it processes
	// its first item; the returned func (if non-nil) runs at worker
	// retirement. Stages use it to build per-worker state (builders, rngs)
	// and flush per-worker tallies — the streaming equivalent of
	// internal/parallel's per-shard setup.
	OnWorker func(worker int) func()
}

// Through appends a stage to the flow. Each worker takes one upstream block
// at a time and runs Fn over its items in rank order, and a reorder buffer
// releases the output blocks strictly in rank order, so downstream stages
// and the sink observe the serial order regardless of scheduling. The
// buffer admits a block only while the items it holds stay within
// workers+queue (the block currently blocking release is always admitted),
// which is what bounds the stage's memory and propagates backpressure
// upstream.
func Through[In, Out any](f *Flow[In], st Stage[In, Out]) *Flow[Out] {
	r := f.run
	workers := parallel.Workers(st.Workers)
	out := make(chan block[Out], 1)
	g := &Flow[Out]{run: r, name: st.Name, out: out, bufs: buffersOf[Out]()}
	labels := r.labels(st.Name)
	ro := newReorder[Out](r, labels, workers, workers+queueDepth(st.Queue))

	reg := r.opts.Metrics
	items := reg.Counter(r.metricName(st.Name, "items"))
	depth := reg.Gauge(r.metricName(st.Name, "queue"))
	latency := reg.Histogram(r.metricName(st.Name, "latency"), obs.LatencyBuckets)

	for worker := range workers {
		r.wg.Add(1)
		go func() {
			pprof.SetGoroutineLabels(labels)
			defer r.wg.Done()
			defer ro.exit()
			defer r.recoverPanic()
			if st.OnWorker != nil {
				if retire := st.OnWorker(worker); retire != nil {
					defer retire()
				}
			}
			for in := range f.out {
				res := block[Out]{rank: in.rank, vals: g.bufs.get(r.block)}
				// An item's latency runs from the end of the one before
				// it (or the block's start): one clock read per item.
				var began time.Time
				if reg != nil {
					began = reg.Time()
				}
				for i, v := range in.vals {
					if r.stopped() {
						return
					}
					outV, err := st.Fn(r.ctx, worker, in.rank+i, v)
					if err != nil {
						r.fail(err)
						return
					}
					if reg != nil {
						now := reg.Time()
						latency.ObserveDuration(now.Sub(began))
						began = now
					}
					res.vals = append(res.vals, outV)
				}
				items.Add(int64(len(in.vals)))
				f.bufs.put(in.vals)
				if !ro.put(res) {
					return
				}
			}
		}()
	}

	// Releaser: takes blocks in rank order, hands them downstream, and
	// journals the stage's retirement watermark at each block's last rank.
	// It is the stage's only sender on (and closer of) the out channel.
	r.wg.Add(1)
	go func() {
		pprof.SetGoroutineLabels(labels)
		defer r.wg.Done()
		defer close(out)
		defer r.recoverPanic()
		for {
			b, ok := ro.take()
			if !ok {
				return
			}
			last := b.rank + len(b.vals) - 1
			if !send(r, out, b, depth) {
				return
			}
			r.opts.Journal.Retire(st.Name, last)
		}
	}()
	return g
}

// Drain terminates the flow on the calling goroutine: sink is invoked once
// per item in strict rank order. A sink error fails the run. Drain returns
// after every pipeline goroutine has stopped; a worker panic is re-raised
// here. The sink's retirement watermark is journaled, for every rank, under
// "<stage>.sink" where <stage> is the last stage's name.
func (f *Flow[T]) Drain(sink func(rank int, v T) error) error {
	r := f.run
	var sinkStage string
	if r.opts.Journal != nil {
		sinkStage = SinkName(f.name)
	}
	sinkErr := false
blocks:
	for b := range f.out {
		for i, v := range b.vals {
			if r.stopped() {
				break blocks
			}
			if err := sink(b.rank+i, v); err != nil {
				r.fail(err)
				sinkErr = true
				break blocks
			}
			r.opts.Journal.Retire(sinkStage, b.rank+i)
		}
		f.bufs.put(b.vals)
	}
	r.cancel()
	if sinkErr {
		// Unblock upstream senders still parked on the out channel.
		for range f.out {
		}
	}
	return r.finish()
}

// SinkName returns the journal stage name Drain retires under for a flow
// whose final stage is named stage — callers resolving a resume point use
// Journal.Last(SinkName(stage)).
func SinkName(stage string) string { return stage + ".sink" }

// reorder releases a stage's output blocks in rank order. Workers put
// completed blocks; a single taker (the stage releaser) removes them in
// order, until every worker has exited and nothing is left. Admission is
// capped so a stalled rank cannot let the buffer grow without bound: a put
// of any block but the next to release waits while the items held plus the
// block's would exceed cap. The next block is always admitted, which keeps
// the graph deadlock-free: blocks leave every hop in rank order, so the
// next block is always held by a running worker.
type reorder[T any] struct {
	mu      sync.Mutex
	ready   sync.Cond // the taker waits here for the next block
	space   sync.Cond // putters wait here for room
	run     *run
	pending map[int]block[T] // by first rank
	next    int              // first rank of the next block to release
	held    int              // items in pending
	cap     int
	workers int // workers that may still put
}

// newReorder returns the buffer for one stage of r and its workers,
// releasing from r.opts.Resume. Its waiters are woken, by a goroutine under
// the stage's labels, when the run is cancelled.
func newReorder[T any](r *run, labels context.Context, workers, capacity int) *reorder[T] {
	ro := &reorder[T]{run: r, pending: make(map[int]block[T]), next: r.opts.Resume, cap: capacity, workers: workers}
	ro.ready.L = &ro.mu
	ro.space.L = &ro.mu
	r.wg.Add(1)
	go func() {
		pprof.SetGoroutineLabels(labels)
		defer r.wg.Done()
		<-r.done
		ro.mu.Lock()
		ro.ready.Broadcast()
		ro.space.Broadcast()
		ro.mu.Unlock()
	}()
	return ro
}

// put hands a completed block to the buffer, waiting while it does not fit
// (unless it is the next to release). Returns false if the run was
// cancelled.
func (ro *reorder[T]) put(b block[T]) bool {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	for b.rank != ro.next && ro.held+len(b.vals) > ro.cap {
		if ro.run.stopped() {
			return false
		}
		ro.space.Wait()
	}
	if ro.run.stopped() {
		return false
	}
	ro.pending[b.rank] = b
	ro.held += len(b.vals)
	if b.rank == ro.next {
		ro.ready.Signal()
	}
	return true
}

// take removes and returns the next block in order, waiting until it is
// available. ok is false when the stream is exhausted or cancelled.
func (ro *reorder[T]) take() (block[T], bool) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	for {
		if b, ok := ro.pending[ro.next]; ok {
			delete(ro.pending, ro.next)
			ro.next += len(b.vals)
			ro.held -= len(b.vals)
			ro.space.Broadcast()
			return b, true
		}
		if ro.workers == 0 || ro.run.stopped() {
			return block[T]{}, false
		}
		ro.ready.Wait()
	}
}

// exit records that a worker will put no more blocks.
func (ro *reorder[T]) exit() {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	if ro.workers--; ro.workers == 0 {
		ro.ready.Signal()
	}
}
