// Tally flattening for distributed runs: a worker ships its sub-range
// Report as a flat counter map over the wire, and the coordinator folds the
// maps from every lease back into one merged Report.
package study

import "chainchaos/internal/core"

// Tally keys. Kept stable: they cross the coordinator/worker wire.
const (
	tallyScanErrors       = "scan_errors"
	tallyErrDial          = "scan_err_dial"
	tallyErrHandshake     = "scan_err_handshake"
	tallyErrParse         = "scan_err_parse"
	tallyErrCancelled     = "scan_err_cancelled"
	tallyRescanned        = "rescanned"
	tallyLost             = "lost"
	tallyFaultsInjected   = "faults_injected"
	tallyAcceptRetries    = "accept_retries"
	tallyDeadlineExpiries = "deadline_expiries"
	tallyLeaves           = "leaves_generated"
	tallyStreamed         = "streamed"
	tallyCompliant        = "streamed_compliant"
	// tallyPass prefixes a client name: the key of Report.Passes[name].
	tallyPass = "pass_"
)

// Tallies flattens the report's additive aggregate counts into the wire
// form a distributed worker returns per lease. Only counts that sum across
// disjoint rank ranges are included — Sites, Cfg, and Snapshot stay local.
func (r *Report) Tallies() map[string]int64 {
	t := map[string]int64{
		tallyScanErrors:       int64(r.ScanErrors),
		tallyErrDial:          int64(r.ScanErrorCauses.Dial),
		tallyErrHandshake:     int64(r.ScanErrorCauses.Handshake),
		tallyErrParse:         int64(r.ScanErrorCauses.Parse),
		tallyErrCancelled:     int64(r.ScanErrorCauses.Cancelled),
		tallyRescanned:        int64(r.Rescanned),
		tallyLost:             int64(r.Lost),
		tallyFaultsInjected:   int64(r.FaultsInjected),
		tallyAcceptRetries:    int64(r.AcceptRetries),
		tallyDeadlineExpiries: int64(r.DeadlineExpiries),
		tallyLeaves:           int64(r.LeavesGenerated),
		tallyStreamed:         int64(r.Streamed),
		tallyCompliant:        int64(r.StreamedCompliant),
	}
	for name, n := range r.Passes {
		t[tallyPass+name] = int64(n)
	}
	return t
}

// ReportFromTallies rebuilds the merged aggregate Report from the summed
// tally maps of every lease of a distributed run.
func ReportFromTallies(cfg Config, t map[string]int64) *Report {
	passes := make(map[string]int, len(core.Profiles))
	for _, p := range core.Profiles {
		passes[p.Name] = int(t[tallyPass+p.Name])
	}
	return &Report{
		Cfg:        cfg,
		ScanErrors: int(t[tallyScanErrors]),
		ScanErrorCauses: ErrorBreakdown{
			Dial:      int(t[tallyErrDial]),
			Handshake: int(t[tallyErrHandshake]),
			Parse:     int(t[tallyErrParse]),
			Cancelled: int(t[tallyErrCancelled]),
		},
		Rescanned:         int(t[tallyRescanned]),
		Lost:              int(t[tallyLost]),
		FaultsInjected:    int(t[tallyFaultsInjected]),
		AcceptRetries:     int(t[tallyAcceptRetries]),
		DeadlineExpiries:  int(t[tallyDeadlineExpiries]),
		LeavesGenerated:   int(t[tallyLeaves]),
		Streamed:          int(t[tallyStreamed]),
		StreamedCompliant: int(t[tallyCompliant]),
		Passes:            passes,
	}
}
