// The streaming path of the differential evaluation: at paper scale
// (906,336 chains) the shared Env cannot hold the population, its analyses,
// and every verdict at once, so when d1 is the only experiment
// cmd/experiments routes §5.2 through the population Source and the
// difftest pipeline instead — domains are generated, analyzed, and graded
// in flight with peak memory O(workers · queue), and per-chain results
// leave through the Record tap.

package experiments

import (
	"context"

	"chainchaos/internal/difftest"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
)

// StreamConfig parameterizes DifferentialStreamSummary.
type StreamConfig struct {
	// Size and Seed define the synthetic population, Workers its
	// parallelism — the same knobs as NewEnv.
	Size    int
	Seed    int64
	Workers int
	// Metrics, when non-nil, instruments every pipeline stage.
	Metrics *obs.Registry
	// Journal and Resume checkpoint the run: Journal records retired ranks,
	// Resume skips ranks a previous run already retired. The population
	// source is rank-deterministic, so a resumed run's records are
	// byte-identical to the same ranks of a full run. A resumed run's
	// summary covers only the ranks processed by this invocation; the JSONL
	// lines passed to Record are the run's durable record.
	Journal *pipeline.Journal
	Resume  int
	// Record, when non-nil, receives every retired rank in order: line is
	// the rank's difftest.RecordLine JSON, nil for compliant chains, which
	// emit no JSONL. Commands write their out-file and ledger through it.
	// See difftest.Harness.Record.
	Record func(rank int, line []byte) error
	// Reuse and Pool shape the population's chain-duplication skew
	// (population.Config.ChainReuse / ChainPool): the fraction of domains
	// presenting a pooled chain, and the slot-pool size.
	Reuse float64
	Pool  int
	// Dedup turns on the harness verdict cache, so duplicate chains cost a
	// lookup instead of a full analysis and eight client path-builds. The
	// summary and JSONL are bit-identical either way.
	Dedup bool
}

// DifferentialStreamSummary runs the §5.2 differential evaluation over a
// streaming population source and returns the raw summary, which
// DifferentialTable renders. The summary is bit-identical to
// Env.DifferentialOverview's for the same (size, seed) when the run is not
// resumed partway.
func DifferentialStreamSummary(ctx context.Context, cfg StreamConfig) (*difftest.Summary, error) {
	if cfg.Size <= 0 {
		cfg.Size = 100000
	}
	src := population.NewSource(population.Config{
		Size: cfg.Size, Seed: cfg.Seed, Workers: cfg.Workers,
		ChainReuse: cfg.Reuse, ChainPool: cfg.Pool,
	})
	h := &difftest.Harness{Workers: cfg.Workers, Metrics: cfg.Metrics, Dedup: cfg.Dedup, Record: cfg.Record}
	return h.RunStream(ctx, src, pipeline.Options{
		Name:    "difftest",
		Metrics: cfg.Metrics,
		Journal: cfg.Journal,
		Resume:  cfg.Resume,
	})
}
