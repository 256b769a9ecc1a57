// The coordinator: carves the rank space into contiguous leases, grants
// them to worker processes, and retires the returned lines strictly in rank
// order so the merged output is byte-identical to a single-process run.
// Lease deadlines ride the faults.Clock; expiry kills and respawns the
// worker (faults.Policy backoff) and requeues the lease, which is safe
// because retirement is rank-gated — re-running a lease re-emits bytes the
// coordinator already flushed, and those are dropped at the gate.
package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/ledger"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

// WorkerConn is one live worker's wire: a byte stream the protocol runs
// over, plus a forceful Kill for expired leases. ProcLauncher backs it with
// a child process's stdio, TCPLauncher with an accepted connection.
type WorkerConn interface {
	io.Reader
	io.Writer
	// Kill forcefully terminates the worker (SIGKILL / connection close);
	// it must not block. The read side then fails, which is how the
	// coordinator's manager learns the worker is gone.
	Kill()
	Close() error
}

// Launcher starts worker instances. slot identifies the worker's position
// in the fleet (0..Workers-1); spawn counts respawns of that slot, 0 for
// the first launch.
type Launcher interface {
	Start(ctx context.Context, slot, spawn int) (WorkerConn, error)
}

// Config parameterizes a coordinator run.
type Config struct {
	// Workers is the fleet size N.
	Workers int
	// Resume and Total bound the run: ranks [Resume, Total) are leased.
	// A resuming caller passes the rank pipeline.Checkpoint/RecoverOutput
	// reconciled, exactly as in the single-process commands.
	Resume int
	Total  int
	// LeaseSize is the rank count per lease; <= 0 picks
	// max(64, (Total-Resume)/(8·Workers)) so each worker sees ~8 leases —
	// small enough to bound the redo window and rebalance stragglers,
	// large enough to amortize the per-lease range-replay cost.
	LeaseSize int
	// Out receives the merged result lines, in global rank order.
	Out io.Writer
	// Journal, when non-nil, receives sink watermarks (under
	// pipeline.SinkName(SinkStage)) as ranks retire, plus a lease record per
	// grant/done/expire/fail — the distributed run's audit trail, written to
	// the same checkpoint file a single-process run uses.
	Journal *pipeline.Journal
	// SinkStage names the stage the watermarks retire under ("grade" for
	// the study, "verdict" for the differential evaluation).
	SinkStage string
	// Clock times lease deadlines; nil means the wall clock.
	Clock faults.Clock
	// LeaseTimeout is how long a lease may go without progress (a rec, mark
	// or done from its worker) before it expires; <= 0 means 2 minutes.
	LeaseTimeout time.Duration
	// Poll is the deadline-check cadence; <= 0 means LeaseTimeout/4 capped
	// at 500ms.
	Poll time.Duration
	// Ledger, when non-nil, folds worker-shipped Merkle subtree roots into
	// journal-anchored batch roots — lease grants announce Ledger.Size and
	// workers hash their own lines. Dense sinks only (rank == leaf index):
	// the study qualifies; sparse sinks must ledger single-process. A
	// resuming caller replays the recovered output through Ledger.Append
	// (ledger.Replay) before Run.
	Ledger *ledger.Folder
	// Metrics, when non-nil, receives the coordinator's dist.* counters,
	// per-worker peak-RSS gauges, and — at completion — every worker's
	// counter snapshot folded in, so one snapshot describes the fleet.
	Metrics *obs.Registry
	// Launch starts workers.
	Launch Launcher
	// Payload builds the msgConfig payload for a worker instance; the same
	// job configuration must yield the same bytes for every instance (the
	// chaos-kill knob in cmd/study is the deliberate exception: it arms
	// only worker 0's first spawn).
	Payload func(slot, spawn int) []byte
}

// Result is a completed distributed run.
type Result struct {
	// Tallies is the sum of every lease's tallies, folded exactly once per
	// lease regardless of reassignments.
	Tallies map[string]int64
	// Reassigned counts lease reassignments (worker death or expiry).
	Reassigned int
	// Respawns counts worker process launches beyond the initial fleet.
	Respawns int
	// WorkerRSSKB is the last-reported peak RSS per worker slot (0 when a
	// slot never completed a lease).
	WorkerRSSKB []int64
}

// lease states.
const (
	leasePending = iota
	leaseRunning
	leaseDone
)

// lease is one contiguous rank range and its execution state.
type lease struct {
	id, lo, hi int
	state      int
	slot       int // owning slot when running
	epoch      int // executions started (reassignments = epoch-1)
	deadline   time.Time
	// flushed is the highest rank already written to the sink; it survives
	// reassignment — that is the rank gate that makes re-runs idempotent.
	flushed int
	buf     []bufLine // lines buffered while the lease is not the head
	tallies map[string]int64
}

type bufLine struct {
	rank int
	line []byte
}

// event kinds flowing from worker managers to the coordinator loop.
const (
	evReady = iota
	evMsg
	evDead
	evFatal
)

type event struct {
	kind      int
	slot, gen int
	proc      *proc
	msg       *message
	err       error
}

// proc is one live worker instance as the coordinator sees it.
type proc struct {
	conn WorkerConn
	wire *wire
	slot int
	gen  int
}

// coord is the run state owned by the coordinator goroutine.
type coord struct {
	cfg    Config
	clock  faults.Clock
	leases []*lease
	head   int
	procs  []*proc // current instance per slot (nil = down)
	gens   []int   // generation of the current instance per slot
	idle   []bool  // slot is up with no lease assigned

	out      io.Writer
	sink     string
	counters []map[string]int64 // last counter snapshot per slot
	rss      []int64

	reassigned *obs.Counter
	grants     *obs.Counter
	failed     *obs.Counter
	respawns   *obs.Counter
	stale      *obs.Counter

	res     Result
	runErr  error
	stopped bool
}

// Run executes the distributed run and blocks until every lease is retired
// or the run fails. The out stream is byte-identical to a single-process
// run over [Resume, Total) for the same job configuration.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Launch == nil {
		return nil, errors.New("dist: Config.Launch is required")
	}
	span := cfg.Total - cfg.Resume
	if span <= 0 {
		return &Result{Tallies: map[string]int64{}, WorkerRSSKB: make([]int64, cfg.Workers)}, nil
	}
	if cfg.LeaseSize <= 0 {
		cfg.LeaseSize = span / (8 * cfg.Workers)
		if cfg.LeaseSize < 64 {
			cfg.LeaseSize = 64
		}
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.LeaseTimeout / 4
		if cfg.Poll > 500*time.Millisecond {
			cfg.Poll = 500 * time.Millisecond
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = faults.Wall()
	}

	c := &coord{
		cfg:        cfg,
		clock:      clock,
		procs:      make([]*proc, cfg.Workers),
		gens:       make([]int, cfg.Workers),
		idle:       make([]bool, cfg.Workers),
		counters:   make([]map[string]int64, cfg.Workers),
		rss:        make([]int64, cfg.Workers),
		out:        cfg.Out,
		sink:       pipeline.SinkName(cfg.SinkStage),
		reassigned: cfg.Metrics.Counter("dist.lease_reassigned"),
		grants:     cfg.Metrics.Counter("dist.lease_grants"),
		failed:     cfg.Metrics.Counter("dist.lease_failed"),
		respawns:   cfg.Metrics.Counter("dist.respawns"),
		stale:      cfg.Metrics.Counter("dist.stale_msgs"),
	}
	c.res.Tallies = map[string]int64{}
	for lo := cfg.Resume; lo < cfg.Total; lo += cfg.LeaseSize {
		hi := lo + cfg.LeaseSize
		if hi > cfg.Total {
			hi = cfg.Total
		}
		c.leases = append(c.leases, &lease{id: len(c.leases), lo: lo, hi: hi, state: leasePending, slot: -1, flushed: lo - 1})
	}
	cfg.Metrics.Gauge("dist.leases").Set(int64(len(c.leases)))
	cfg.Metrics.Gauge("dist.workers").Set(int64(cfg.Workers))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	events := make(chan event, 4*cfg.Workers+16)
	var managers sync.WaitGroup
	for slot := 0; slot < cfg.Workers; slot++ {
		managers.Add(1)
		go func() {
			defer managers.Done()
			c.manage(runCtx, slot, events)
		}()
	}

	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for c.head < len(c.leases) && c.runErr == nil {
		select {
		case ev := <-events:
			c.handle(ev)
		case <-ticker.C:
			c.checkDeadlines()
		case <-ctx.Done():
			c.runErr = ctx.Err()
		}
	}

	// Teardown: stop respawns first, then release the fleet. Cancelling the
	// run context also closes every manager's conn, including one whose
	// hello arrived too late to enter c.procs, so no manager stays parked in
	// a read and no worker waits for a lease; a closed wire ends a worker's
	// serve loop as cleanly as the stop message. The run returns only once
	// every manager has exited.
	cancel()
	for _, p := range c.procs {
		if p != nil {
			p.wire.send(&message{T: msgStop}) //nolint:errcheck
			p.conn.Close()
		}
	}
	managers.Wait()
	if c.runErr != nil {
		return nil, c.runErr
	}
	c.foldWorkerMetrics()
	c.res.Respawns = int(c.respawns.Value())
	c.res.WorkerRSSKB = append([]int64(nil), c.rss...)
	return &c.res, nil
}

// respawnBackoff paces a slot's relaunches after a worker death, an expiry
// or a failed launch: 50 ms before the first, doubling per consecutive
// failed launch up to 2 s, with no jitter.
var respawnBackoff = faults.Policy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}

const (
	// maxRespawns bounds consecutive failed launches per slot.
	maxRespawns = 5
	// maxLeaseAttempts bounds executions of one lease before the run is
	// declared failed.
	maxLeaseAttempts = 5
	// windowPerWorker bounds how far past the head lease grants may run,
	// in leases per worker. It is what bounds the coordinator's reorder
	// buffer: at most windowPerWorker·Workers leases of lines are ever
	// held in memory.
	windowPerWorker = 2
)

// manage owns one worker slot's lifecycle: launch, forward messages, and
// respawn (with respawnBackoff) after death, until the run context ends.
// The end of the run context closes the current conn, which is what
// releases a worker the coordinator never granted a lease.
func (c *coord) manage(ctx context.Context, slot int, events chan<- event) {
	post := func(ev event) {
		select {
		case events <- ev:
		case <-ctx.Done():
		}
	}
	failures := 0
	for gen := 0; ctx.Err() == nil; gen++ {
		if gen > 0 {
			c.respawns.Inc()
			if err := c.clock.Sleep(ctx, respawnBackoff.Delay(failures)); err != nil {
				return
			}
		}
		conn, err := c.cfg.Launch.Start(ctx, slot, gen)
		if err != nil {
			failures++
			if failures > maxRespawns {
				post(event{kind: evFatal, slot: slot, err: fmt.Errorf("dist: worker %d: launch: %w", slot, err)})
				return
			}
			continue
		}
		failures = 0
		release := context.AfterFunc(ctx, func() { conn.Close() })
		p := &proc{conn: conn, wire: newWire(conn, conn), slot: slot, gen: gen}
		var payload []byte
		if c.cfg.Payload != nil {
			payload = c.cfg.Payload(slot, gen)
		}
		if err := p.wire.send(&message{T: msgConfig, Payload: payload}); err != nil {
			release()
			conn.Close()
			continue
		}
		for {
			m, err := p.wire.recv()
			if err != nil {
				break
			}
			if m.T == msgHello {
				post(event{kind: evReady, slot: slot, gen: gen, proc: p})
				continue
			}
			post(event{kind: evMsg, slot: slot, gen: gen, msg: m})
		}
		release()
		conn.Close()
		post(event{kind: evDead, slot: slot, gen: gen})
	}
}

// handle applies one manager event to the run state.
func (c *coord) handle(ev event) {
	switch ev.kind {
	case evReady:
		c.gens[ev.slot] = ev.gen
		c.procs[ev.slot] = ev.proc
		c.idle[ev.slot] = true
		c.grantNext(ev.slot)
	case evDead:
		if c.gens[ev.slot] != ev.gen || c.procs[ev.slot] == nil {
			return // an instance we already replaced or killed
		}
		c.procs[ev.slot] = nil
		c.idle[ev.slot] = false
		c.requeueSlotLease(ev.slot)
	case evFatal:
		if c.runErr == nil {
			c.runErr = ev.err
		}
	case evMsg:
		if c.gens[ev.slot] != ev.gen || c.procs[ev.slot] == nil {
			c.stale.Inc()
			return
		}
		c.handleMsg(ev.slot, ev.msg)
	}
}

// handleMsg applies one worker message after the liveness checks. A setup
// failure (msgFail before any grant) falls through the lease-state check
// below: the worker dies, its manager respawns it, and only repeated launch
// failures abort the run.
func (c *coord) handleMsg(slot int, m *message) {
	if m.Lease < 0 || m.Lease >= len(c.leases) {
		c.stale.Inc()
		return
	}
	l := c.leases[m.Lease]
	if l.state != leaseRunning || l.slot != slot || l.epoch != m.Epoch {
		c.stale.Inc()
		return
	}
	l.deadline = c.clock.Now().Add(c.cfg.LeaseTimeout)
	switch m.T {
	case msgRec:
		if m.Rank <= l.flushed {
			return // idempotent redo of already-retired ranks
		}
		if l.id == c.head {
			c.flushLine(l, m.Rank, m.Line)
		} else {
			l.buf = append(l.buf, bufLine{rank: m.Rank, line: m.Line})
		}
	case msgMark:
		if l.id == c.head && m.Rank > l.flushed {
			l.flushed = m.Rank
			c.cfg.Journal.Retire(c.sink, m.Rank)
		}
	case msgDone:
		if c.cfg.Ledger != nil {
			// Exactly-once per leaf: the state/epoch gate above drops done
			// messages from superseded executions, and a reassigned lease's
			// failed epoch never reached this point.
			for _, w := range m.Roots {
				if err := c.cfg.Ledger.Add(w); err != nil && c.runErr == nil {
					c.runErr = fmt.Errorf("dist: ledger fold (lease %d): %w", l.id, err)
					return
				}
			}
		}
		l.state = leaseDone
		l.tallies = m.Tallies
		if m.Counters != nil {
			c.counters[slot] = m.Counters
		}
		if m.RSSKB > c.rss[slot] {
			c.rss[slot] = m.RSSKB
		}
		c.cfg.Metrics.Gauge(fmt.Sprintf("dist.worker.%d.max_rss_kb", slot)).Set(c.rss[slot])
		for k, v := range l.tallies {
			c.res.Tallies[k] += v
		}
		c.cfg.Journal.Lease("done", l.id, l.lo, l.hi, l.epoch)
		c.advanceHead()
		c.idle[slot] = true
		c.grantNext(slot)
	case msgFail:
		c.failed.Inc()
		c.cfg.Journal.Lease("fail", l.id, l.lo, l.hi, l.epoch)
		if l.epoch+1 >= maxLeaseAttempts {
			c.runErr = fmt.Errorf("dist: lease %d [%d,%d) failed %d times: %s", l.id, l.lo, l.hi, l.epoch+1, m.Err)
			return
		}
		c.requeueLease(l)
		c.idle[slot] = true
		c.grantNext(slot)
	}
}

// flushLine writes one head-lease line to the sink and journals the
// watermark. Head-lease lines arrive in rank order from the single worker
// executing the lease, so the global stream stays in rank order.
func (c *coord) flushLine(l *lease, rank int, line []byte) {
	if c.out != nil {
		if _, err := c.out.Write(append(line, '\n')); err != nil && c.runErr == nil {
			c.runErr = fmt.Errorf("dist: write output: %w", err)
			return
		}
	}
	// The flush path is the one place lines pass in global rank order, so
	// the per-record sidecar hashes are written here; batch roots come from
	// the workers' folded ranges, not from these hashes.
	if err := c.cfg.Ledger.SidecarLine(line); err != nil && c.runErr == nil {
		c.runErr = err
		return
	}
	l.flushed = rank
	c.cfg.Journal.Retire(c.sink, rank)
}

// advanceHead retires completed leases at the head, flushing any buffered
// lines of the lease that becomes the new head.
func (c *coord) advanceHead() {
	for c.head < len(c.leases) && c.leases[c.head].state == leaseDone {
		l := c.leases[c.head]
		c.drainBuffer(l)
		if l.hi-1 > l.flushed {
			l.flushed = l.hi - 1
			c.cfg.Journal.Retire(c.sink, l.flushed)
		}
		l.buf = nil
		c.head++
	}
	if c.head < len(c.leases) {
		// The new head may have buffered lines from before it reached the
		// front; stream them now and keep streaming directly from here on.
		c.drainBuffer(c.leases[c.head])
	}
	// Advancing the head may bring pending leases into the grant window.
	for slot, ok := range c.idle {
		if ok {
			c.grantNext(slot)
		}
	}
}

// drainBuffer flushes a lease's buffered lines past the rank gate.
func (c *coord) drainBuffer(l *lease) {
	for _, b := range l.buf {
		if b.rank <= l.flushed {
			continue
		}
		c.flushLine(l, b.rank, b.line)
	}
	l.buf = l.buf[:0]
}

// grantNext assigns the first grantable pending lease to an idle slot.
func (c *coord) grantNext(slot int) {
	if !c.idle[slot] || c.procs[slot] == nil {
		return
	}
	limit := c.head + windowPerWorker*c.cfg.Workers
	for _, l := range c.leases[c.head:] {
		if l.id >= limit {
			return // outside the reorder window; the slot stays idle
		}
		if l.state != leasePending {
			continue
		}
		p := c.procs[slot]
		lsize := 0
		if c.cfg.Ledger != nil {
			if lsize = c.cfg.Ledger.Size; lsize <= 0 {
				lsize = ledger.DefaultBatch
			}
		}
		err := p.wire.send(&message{T: msgLease, Lease: l.id, Epoch: l.epoch, Lo: l.lo, Hi: l.hi, LedgerSize: lsize})
		if err != nil {
			// The worker died between events; its manager will report the
			// death and respawn. The lease stays pending.
			c.procs[slot] = nil
			c.idle[slot] = false
			return
		}
		l.state = leaseRunning
		l.slot = slot
		l.deadline = c.clock.Now().Add(c.cfg.LeaseTimeout)
		c.idle[slot] = false
		c.grants.Inc()
		c.cfg.Journal.Lease("grant", l.id, l.lo, l.hi, l.epoch)
		return
	}
}

// requeueSlotLease returns a dead slot's running lease to the pending queue.
func (c *coord) requeueSlotLease(slot int) {
	for _, l := range c.leases[c.head:] {
		if l.state == leaseRunning && l.slot == slot {
			c.reassigned.Inc()
			c.res.Reassigned++
			c.cfg.Journal.Lease("expire", l.id, l.lo, l.hi, l.epoch)
			c.requeueLease(l)
			break
		}
	}
	for s, ok := range c.idle {
		if ok {
			c.grantNext(s)
		}
	}
}

// requeueLease resets a lease for re-execution. The flushed watermark is
// kept — that is what makes the redo idempotent — but buffered lines from
// the dead execution are discarded; the redo regenerates them bit-for-bit.
func (c *coord) requeueLease(l *lease) {
	l.state = leasePending
	l.slot = -1
	l.epoch++
	l.buf = l.buf[:0]
}

// checkDeadlines expires leases whose worker has gone silent: the worker is
// killed (its manager respawns it under the backoff policy) and the lease
// requeued for another worker.
func (c *coord) checkDeadlines() {
	now := c.clock.Now()
	for _, l := range c.leases[c.head:] {
		if l.state != leaseRunning || !now.After(l.deadline) {
			continue
		}
		slot := l.slot
		c.reassigned.Inc()
		c.res.Reassigned++
		c.cfg.Journal.Lease("expire", l.id, l.lo, l.hi, l.epoch)
		if p := c.procs[slot]; p != nil {
			p.conn.Kill()
			c.procs[slot] = nil
			c.idle[slot] = false
		}
		c.requeueLease(l)
	}
	for s, ok := range c.idle {
		if ok {
			c.grantNext(s)
		}
	}
}

// foldWorkerMetrics merges every worker's last counter snapshot and peak
// RSS into the coordinator's registry: counters sum under their original
// names, each slot keeps a dist.worker.<n>.max_rss_kb gauge, and the fleet-
// wide maximum (including the coordinator's own process) lands in
// proc.fleet_max_rss_kb.
func (c *coord) foldWorkerMetrics() {
	if c.cfg.Metrics == nil {
		return
	}
	for _, snap := range c.counters {
		for name, v := range snap {
			c.cfg.Metrics.Counter(name).Add(v)
		}
	}
	fleet := obs.MaxRSSKB()
	for slot, kb := range c.rss {
		if kb > 0 {
			c.cfg.Metrics.Gauge(fmt.Sprintf("dist.worker.%d.max_rss_kb", slot)).Set(kb)
		}
		if kb > fleet {
			fleet = kb
		}
	}
	if fleet > 0 {
		c.cfg.Metrics.Gauge("proc.fleet_max_rss_kb").Set(fleet)
	}
}
