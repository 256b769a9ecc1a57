package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"chainchaos/internal/report"
)

// HistogramStat is the exported state of one histogram: totals plus its
// p50/p95/p99 estimates.
type HistogramStat struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot is a point-in-time export of a registry. Maps marshal with sorted
// keys (encoding/json's map behaviour), so two snapshots of identical state
// produce identical bytes — the determinism the FakeClock tests assert.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot exports the registry's current state. Individual metric reads are
// atomic; the snapshot as a whole is not a consistent cut under concurrent
// writers (take it after the pipeline quiesces for exact totals). Returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStat{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = HistogramStat{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	return snap
}

// MarshalJSON-friendly export: MarshalIndent for the -metrics dump files.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PipelineTable renders the per-stage accounting table ("pipeline") the
// study report embeds: one row per <p>.latency histogram that has a
// <p>.items counter — the pair internal/pipeline publishes for its source
// and each stage — with the stage's items, its busy time (the histogram's
// sum) and the busy time per item. Nil when no such pair exists.
func (s *Snapshot) PipelineTable() *report.Table {
	var t *report.Table
	for _, name := range sortedKeys(s.Histograms) {
		stage, ok := strings.CutSuffix(name, ".latency")
		if !ok {
			continue
		}
		items, ok := s.Counters[stage+".items"]
		if !ok {
			continue
		}
		if t == nil {
			t = report.New("pipeline — per-stage busy time", "Stage", "Items", "Busy", "Mean")
		}
		busy := time.Duration(s.Histograms[name].Sum)
		mean := time.Duration(0)
		if items > 0 {
			mean = busy / time.Duration(items)
		}
		t.Add(stage, strconv.FormatInt(items, 10),
			busy.Round(time.Microsecond).String(), mean.Round(time.Microsecond).String())
	}
	return t
}
