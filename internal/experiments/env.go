// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's substrates. Each experiment returns a
// report.Table whose rows mirror the paper's rows; cmd/experiments prints
// them and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"sync"

	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/obs"
	"chainchaos/internal/parallel"
	"chainchaos/internal/population"
	"chainchaos/internal/topo"
)

// Env carries the shared state of an experiment run: the synthetic
// population, its per-domain topology graphs and compliance reports (computed
// once, reused by every server-side table and by the differential harness),
// and the client capability runner.
type Env struct {
	Size int
	Seed int64
	// Workers bounds parallelism in population generation, per-domain
	// analysis, and the differential harness; <= 0 means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, instruments every differential harness the
	// experiments run; nil runs uninstrumented.
	Metrics *obs.Registry

	popOnce sync.Once
	pop     *population.Population

	analysisOnce sync.Once
	graphs       []*topo.Graph
	reports      []compliance.Report

	runnerOnce sync.Once
	runner     *clients.Runner
	runnerErr  error
}

// NewEnv creates an environment. size <= 0 defaults to 100,000 domains — a
// 1/9 scale model of the paper's 906,336-chain dataset that keeps every
// experiment under a minute on a laptop. Pass 906336 for full scale.
func NewEnv(size int, seed int64) *Env {
	if size <= 0 {
		size = 100000
	}
	return &Env{Size: size, Seed: seed}
}

// Population generates (once) and returns the synthetic population.
func (e *Env) Population() *population.Population {
	e.popOnce.Do(func() {
		e.pop = population.Generate(population.Config{Size: e.Size, Seed: e.Seed, Workers: e.Workers})
	})
	return e.pop
}

// analyze builds topology graphs and compliance reports for every domain,
// in parallel.
func (e *Env) analyze() {
	e.analysisOnce.Do(func() {
		pop := e.Population()
		n := len(pop.Domains)
		e.graphs = make([]*topo.Graph, n)
		e.reports = make([]compliance.Report, n)
		analyzer := &compliance.Analyzer{Completeness: compliance.CompletenessConfig{
			Roots:   pop.Roots(),
			Fetcher: pop.Repo,
		}}
		parallel.For(context.Background(), n, e.Workers, func(i int) {
			d := pop.Domains[i]
			g := topo.Build(d.List)
			e.graphs[i] = g
			e.reports[i] = analyzer.Analyze(d.Name, g)
		})
	})
}

// Graphs returns the per-domain topology graphs (index-aligned with
// Population().Domains).
func (e *Env) Graphs() []*topo.Graph {
	e.analyze()
	return e.graphs
}

// Reports returns the per-domain compliance reports.
func (e *Env) Reports() []compliance.Report {
	e.analyze()
	return e.reports
}

// Runner returns the shared client capability runner.
func (e *Env) Runner() (*clients.Runner, error) {
	e.runnerOnce.Do(func() {
		e.runner, e.runnerErr = clients.NewRunner()
	})
	return e.runner, e.runnerErr
}
