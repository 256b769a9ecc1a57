// The distribution half of the harness: one rank range runs either in this
// process or, under -distribute N, over a fleet of workers that are copies
// of the same command started with -worker. The coordinator leases ranges
// to them (internal/dist) and merges their records into the same Output a
// single-process run writes, byte for byte.
package run

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"chainchaos/internal/dist"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
)

// Job is the coordinator→worker payload: the command's config C, which
// must reproduce the exact run a single process would do, plus the chaos
// knob. Every worker gets the same Config; per-rank determinism is what
// makes leased sub-ranges byte-identical to the full run.
type Job[C any] struct {
	Config C `json:"config"`
	// KillAfter, when > 0, makes the first worker's first incarnation
	// SIGKILL itself after emitting that many ranks (-dist-kill-after): the
	// chaos knob that proves a mid-lease kill -9 loses no records. A
	// single-process run ignores it.
	KillAfter int `json:"kill_after,omitempty"`
}

// Span is one execution of ranks [Lo, Hi) and where its records go.
type Span struct {
	Lo, Hi int
	// Journal is the checkpoint journal the run's pipeline retires its
	// ranks through; nil in a worker, whose coordinator journals instead.
	Journal *pipeline.Journal
	// Metrics is the registry to instrument the range with.
	Metrics *obs.Registry
	// Emit takes each retired rank's record line (without its trailing
	// newline), in rank order; line is nil for a rank with no record.
	Emit func(rank int, line []byte) error
}

// RangeFunc runs one span of a command's job and returns the span's
// tallies: counts that derive from the ranks alone, so the coordinator can
// sum them over leases into the report a single process would print.
type RangeFunc[C any] func(ctx context.Context, cfg C, s Span) (map[string]int64, error)

// killSelf ends a worker armed with Job.KillAfter.
var killSelf = dist.KillSelf

// Ranks runs ranks [o.Resume, total) of job through fn, writing the records
// to o: in this process, or under -distribute over a worker fleet whose
// records merge in rank order. Workers are fork/exec'd copies of this
// binary run with -worker, or, under -dist-listen, whatever workers dial
// in. It returns the run's tallies.
func Ranks[C any](ctx context.Context, cli *obs.CLI, o *Output, total int, job Job[C], fn RangeFunc[C]) (map[string]int64, error) {
	if cli.Distribute == 0 {
		return fn(ctx, job.Config, Span{Lo: o.Resume, Hi: total, Journal: o.Journal, Metrics: cli.Metrics, Emit: o.Emit})
	}
	var launch dist.Launcher = &dist.ProcLauncher{Args: []string{"-worker"}}
	if cli.DistListen != "" {
		tl, err := dist.ListenTCP(cli.DistListen)
		if err != nil {
			return nil, err
		}
		defer tl.Close()
		fmt.Fprintf(os.Stderr, "%s: waiting for %d workers on %s (run: %s -worker -connect %s)\n",
			cli.Prog, cli.Distribute, tl.Addr(), cli.Prog, tl.Addr())
		launch = tl
	}
	return coordinate(ctx, cli, o, total, job, launch)
}

// coordinate is the -distribute half of Ranks over a chosen launcher.
func coordinate[C any](ctx context.Context, cli *obs.CLI, o *Output, total int, job Job[C], launch dist.Launcher) (map[string]int64, error) {
	o.total = total
	payload := func(slot, spawn int) []byte {
		j := job
		if slot != 0 || spawn != 0 {
			j.KillAfter = 0 // the replacement and every other worker run clean
		}
		b, _ := json.Marshal(j)
		return b
	}
	res, err := dist.Run(ctx, dist.Config{
		Workers: cli.Distribute, Resume: o.Resume, Total: total, LeaseSize: cli.DistLease,
		Out: o.w, Journal: o.Journal, SinkStage: o.stage, Ledger: o.folder,
		Metrics: cli.Metrics, Launch: launch, Payload: payload,
	})
	if err != nil {
		return nil, err
	}
	if res.Reassigned > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d lease reassignments, %d worker respawns\n", cli.Prog, res.Reassigned, res.Respawns)
	}
	return res.Tallies, nil
}

// Serve is a command's -worker mode: it serves the coordinator's leases
// over stdio (or the -connect address), running each through fn, until the
// coordinator closes the wire. Stdout is the wire, so fn must write nothing
// else to it.
func Serve[C any](ctx context.Context, cli *obs.CLI, fn RangeFunc[C]) error {
	// A worker returns before cli.Start, so it validates its flags here.
	if err := cli.Validate(); err != nil {
		return err
	}
	setup := func(payload json.RawMessage) (dist.RangeRunner, *obs.Registry, error) {
		var job Job[C]
		if err := json.Unmarshal(payload, &job); err != nil {
			return nil, nil, fmt.Errorf("bad worker payload: %w", err)
		}
		reg := obs.NewRegistry()
		emitted := 0
		runner := func(ctx context.Context, lo, hi int, emit func(rank int, line []byte) error) (map[string]int64, error) {
			return fn(ctx, job.Config, Span{Lo: lo, Hi: hi, Metrics: reg, Emit: func(rank int, line []byte) error {
				if err := emit(rank, line); err != nil {
					return err
				}
				if emitted++; job.KillAfter > 0 && emitted >= job.KillAfter {
					killSelf()
				}
				return nil
			}})
		}
		return runner, reg, nil
	}
	if cli.Connect != "" {
		return dist.ServeTCP(ctx, cli.Connect, setup)
	}
	return dist.ServeStdio(ctx, setup)
}
