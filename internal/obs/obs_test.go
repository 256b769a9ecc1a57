package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/parallel"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	// Every handle off a nil registry must be nil and every method a no-op.
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1)
	r.Histogram("h", LatencyBuckets).Observe(42)
	r.Histogram("h", LatencyBuckets).ObserveDuration(time.Second)
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	snap := r.Snapshot()
	if snap == nil {
		t.Fatal("nil registry snapshot must be non-nil")
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]int64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20]: p50 sits exactly on the
	// boundary of the first bucket, p95 interpolates inside the second.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Count(); got != 20 {
		t.Fatalf("count = %d, want 20", got)
	}
	if got := h.Sum(); got != 200 {
		t.Fatalf("sum = %d, want 200", got)
	}
	if got := h.Quantile(0.50); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.95); got <= 10 || got > 20 {
		t.Fatalf("p95 = %d, want within (10,20]", got)
	}
	if got := h.Quantile(1.0); got != 20 {
		t.Fatalf("p100 = %d, want 20", got)
	}
	// Overflow bucket reports the largest finite bound.
	h2 := newHistogram([]int64{10})
	h2.Observe(1_000_000)
	if got := h2.Quantile(0.5); got != 10 {
		t.Fatalf("overflow quantile = %d, want 10", got)
	}
	// Empty histogram.
	if got := newHistogram([]int64{10}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
}

// TestConcurrentExactTotals hammers one counter and one histogram from
// parallel.For workers and asserts the totals are exact — the atomic
// counters must not drop updates under contention. Run with -race in CI.
func TestConcurrentExactTotals(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer.count")
	h := r.Histogram("hammer.hist", SizeBuckets)

	const n = 10_000
	parallel.For(context.Background(), n, 8, func(i int) {
		c.Inc()
		h.Observe(int64(i%64 + 1))
		// Exercise the registry's locked lookup path concurrently too.
		r.Counter("hammer.count").Add(1)
	})

	if got := c.Value(); got != 2*n {
		t.Fatalf("counter = %d, want %d", got, 2*n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
	var wantSum int64
	for i := 0; i < n; i++ {
		wantSum += int64(i%64 + 1)
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("histogram sum = %d, want %d", got, wantSum)
	}
}

// buildFixture drives a registry through a fixed sequence of updates on a
// fake clock. Two runs of this function must yield byte-identical JSON.
func buildFixture() ([]byte, error) {
	clk := faults.NewFakeClock(time.Unix(1700000000, 0))
	r := NewRegistry()
	r.Now = clk.Now

	r.Counter("scan.handshakes").Add(40)
	r.Counter("scan.errors.dial").Add(3)
	r.Gauge("pool.size").Set(12)
	h := r.Histogram("scan.handshake_latency", LatencyBuckets)
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Duration(i+1) * time.Millisecond)
	}
	began := r.Time()
	clk.Advance(250 * time.Millisecond)
	r.Histogram("study.scan.latency", LatencyBuckets).ObserveDuration(r.Time().Sub(began))

	return r.Snapshot().JSON()
}

func TestSnapshotDeterministicUnderFakeClock(t *testing.T) {
	a, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["scan.handshakes"] != 40 {
		t.Fatalf("handshakes = %d, want 40", snap.Counters["scan.handshakes"])
	}
	if got := snap.Histograms["study.scan.latency"]; got.Count != 1 || got.Sum != int64(250*time.Millisecond) {
		t.Fatalf("study.scan.latency = %+v, want one 250ms observation — Time must read the injected clock", got)
	}
	if snap.Histograms["scan.handshake_latency"].Count != 10 {
		t.Fatal("histogram lost observations")
	}
}

// TestPipelineTable: one row per <p>.latency histogram with a <p>.items
// counter, the pair the pipeline engine publishes; Busy is the histogram's
// sum and Mean is Busy per item, so a source observed once per two-item
// hand-off still reports its time per item. A latency histogram without an
// items counter gets no row, and a snapshot with no pair gives nil.
func TestPipelineTable(t *testing.T) {
	r := NewRegistry()
	deploy := r.Histogram("study.deploy.latency", LatencyBuckets)
	for range 2 {
		deploy.ObserveDuration(4 * time.Millisecond)
	}
	r.Counter("study.deploy.items").Add(4)
	scan := r.Histogram("study.scan.latency", LatencyBuckets)
	for range 4 {
		scan.ObserveDuration(3 * time.Millisecond)
	}
	r.Counter("study.scan.items").Add(4)
	r.Histogram("chainserved.verdict.latency", LatencyBuckets).ObserveDuration(time.Millisecond)
	r.Counter("scan.handshakes").Add(8)

	pt := r.Snapshot().PipelineTable()
	if pt == nil {
		t.Fatal("no pipeline table for two engine pairs")
	}
	want := [][]string{
		{"study.deploy", "4", "8ms", "2ms"},
		{"study.scan", "4", "12ms", "3ms"},
	}
	if !reflect.DeepEqual(pt.Rows, want) {
		t.Fatalf("rows = %q, want %q", pt.Rows, want)
	}
	if pt.Title != "pipeline — per-stage busy time" {
		t.Errorf("title = %q", pt.Title)
	}
	if pt := NewRegistry().Snapshot().PipelineTable(); pt != nil {
		t.Fatal("empty registry must not produce a pipeline table")
	}
}

func TestStartPprofDisabled(t *testing.T) {
	addr, err := StartPprof("")
	if err != nil || addr != "" {
		t.Fatalf("StartPprof(\"\") = %q, %v; want no-op", addr, err)
	}
	if _, err := StartPprof("256.0.0.1:0"); err == nil {
		t.Fatal("StartPprof must fail synchronously on a bad address")
	}
}
