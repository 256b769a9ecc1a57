package obs

import "sync"

// Process-wide counters belong to packages that sit beneath every run and
// hold no registry of their own: certmodel's signature-check counts are
// shared by every grader in the process. Such a package publishes a load
// func once, from init, and the export points copy the values into a run's
// registry with RecordProcess: CLI.Finish for every command's -metrics JSON
// and chainserved's /metrics. Snapshot never reads them by itself, so a
// registry's snapshot stays a function of what its own run recorded.
var (
	processMu       sync.Mutex
	processCounters = map[string]func() int64{}
)

// PublishProcessCounter registers load as the source of the process-wide
// counter name. A second publication under the same name replaces the first.
func PublishProcessCounter(name string, load func() int64) {
	processMu.Lock()
	defer processMu.Unlock()
	processCounters[name] = load
}

// RecordProcess copies the process-wide state into r: the peak RSS
// (RecordMaxRSS) and the current value of every published process counter
// under its published name. Each call overwrites the previous values, so a
// long-lived endpoint may record before every snapshot. No-op on a nil
// registry.
func (r *Registry) RecordProcess() {
	if r == nil {
		return
	}
	r.RecordMaxRSS()
	processMu.Lock()
	defer processMu.Unlock()
	for name, load := range processCounters {
		r.Counter(name).v.Store(load())
	}
}
