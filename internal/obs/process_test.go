package obs

import (
	"sync/atomic"
	"testing"
)

// TestRecordProcess: published process counters reach a registry only when
// it records them, under their published names and at their current value,
// and a repeat overwrites instead of accumulating.
func TestRecordProcess(t *testing.T) {
	var n atomic.Int64
	n.Store(7)
	PublishProcessCounter("test.process_counter", n.Load)

	r := NewRegistry()
	if _, ok := r.Snapshot().Counters["test.process_counter"]; ok {
		t.Fatal("a snapshot read a process counter the registry never recorded")
	}
	r.RecordProcess()
	if got := r.Snapshot().Counters["test.process_counter"]; got != 7 {
		t.Fatalf("recorded %d, want 7", got)
	}
	n.Store(9)
	r.RecordProcess()
	if got := r.Snapshot().Counters["test.process_counter"]; got != 9 {
		t.Fatalf("re-recorded %d, want the current value 9", got)
	}
	(*Registry)(nil).RecordProcess()
}
