package study

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"chainchaos/internal/faults"
	"chainchaos/internal/tlsserve"
)

// runStudy runs cfg with its records written to a buffer, returning the
// report, the JSONL bytes and the decoded records.
func runStudy(t *testing.T, cfg Config) (*Report, []byte, []SiteRecord) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := RunStream(context.Background(), cfg, Stream{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes(), decodeRecords(t, buf.Bytes())
}

// decodeRecords decodes a JSONL stream of site records.
func decodeRecords(t testing.TB, jsonl []byte) []SiteRecord {
	t.Helper()
	var recs []SiteRecord
	for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var rec SiteRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestStudyEndToEnd(t *testing.T) {
	rep, _, recs := runStudy(t, Config{Sites: 24, Seed: 4, Vantages: 2, Concurrency: 8})
	if len(recs) != 24 || rep.Streamed != 24 {
		t.Fatalf("%d records, %d sites streamed", len(recs), rep.Streamed)
	}
	if rep.ScanErrors != 0 {
		t.Errorf("scan errors = %d", rep.ScanErrors)
	}

	var sawDefect, sawCompliant bool
	for _, s := range recs {
		if !s.Scanned || s.Verdicts == nil {
			t.Fatalf("%s: never scanned", s.Domain)
		}
		switch s.Injected {
		case defectNone.String():
			sawCompliant = true
			if !s.Compliant {
				t.Errorf("%s: clean deployment graded non-compliant (order ok %v)", s.Domain, s.OrderOK)
			}
			for client, ok := range s.Verdicts {
				if !ok {
					t.Errorf("%s: %s rejected a compliant chain", s.Domain, client)
				}
			}
		case defectReversed.String():
			sawDefect = true
			if s.Compliant {
				t.Errorf("%s: reversed deployment graded compliant", s.Domain)
			}
			if s.Verdicts["MbedTLS"] {
				t.Errorf("%s: MbedTLS accepted a reversed chain", s.Domain)
			}
			if !s.Verdicts["Chrome"] {
				t.Errorf("%s: Chrome rejected a reorderable chain", s.Domain)
			}
		case defectIncomplete.String():
			sawDefect = true
			if s.Verdicts["OpenSSL"] {
				t.Errorf("%s: OpenSSL accepted an incomplete chain", s.Domain)
			}
			if !s.Verdicts["CryptoAPI"] {
				t.Errorf("%s: CryptoAPI failed to AIA-complete", s.Domain)
			}
		}
	}
	if !sawDefect || !sawCompliant {
		t.Error("defect mix not exercised; adjust seed")
	}

	tables := rep.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	for i, table := range tables {
		if table.String() == "" {
			t.Errorf("table %d renders empty", i)
		}
	}
	if rep.Lost != 0 || rep.Rescanned != 0 || rep.ScanErrorCauses.Total() != 0 {
		t.Errorf("clean run reported lost=%d rescanned=%d causes=%+v",
			rep.Lost, rep.Rescanned, rep.ScanErrorCauses)
	}
}

// TestStudyFaultsRecoveredByRetry: every listener resets its first
// connection; the scanner's retry budget absorbs it and the report shows a
// clean run — zero lost sites, zero residual errors.
func TestStudyFaultsRecoveredByRetry(t *testing.T) {
	clock := faults.NewFakeClock(time.Now())
	rep, _, recs := runStudy(t, Config{
		Sites: 10, Seed: 4, Vantages: 2, Concurrency: 4,
		Retries: 3,
		Faults:  tlsserve.FaultConfig{FailFirst: 1},
		Clock:   clock,
	})
	if rep.ScanErrors != 0 {
		t.Errorf("scan errors = %d (%+v); retries should have absorbed the resets",
			rep.ScanErrors, rep.ScanErrorCauses)
	}
	if rep.Lost != 0 {
		t.Errorf("lost sites = %d", rep.Lost)
	}
	for _, s := range recs {
		if !s.Scanned {
			t.Errorf("%s: never graded", s.Domain)
		}
	}
	if clock.SleptTotal() == 0 {
		t.Error("retry backoff never used the injected clock")
	}
}

// TestStudyFaultsRecoveredByRescan: with no retry budget and two failing
// connections per listener, both vantages miss every site; the bounded
// re-scan pass recovers all of them, and the failures land under the
// handshake cause (TCP connected, TLS reset).
func TestStudyFaultsRecoveredByRescan(t *testing.T) {
	const sites = 8
	rep, _, recs := runStudy(t, Config{
		Sites: sites, Seed: 4, Vantages: 2, Concurrency: 4,
		Faults: tlsserve.FaultConfig{FailFirst: 2},
		Clock:  faults.NewFakeClock(time.Now()),
	})
	if rep.ScanErrors != 2*sites {
		t.Errorf("scan errors = %d, want %d (two reset vantages per site)", rep.ScanErrors, 2*sites)
	}
	if got := rep.ScanErrorCauses.Total(); got != rep.ScanErrors {
		t.Errorf("cause breakdown sums to %d, want %d", got, rep.ScanErrors)
	}
	if rep.ScanErrorCauses.Cancelled != 0 {
		t.Errorf("transport faults misclassified: %+v", rep.ScanErrorCauses)
	}
	if rep.Rescanned != sites {
		t.Errorf("rescanned = %d, want %d", rep.Rescanned, sites)
	}
	if rep.Lost != 0 {
		t.Errorf("lost sites = %d, want 0", rep.Lost)
	}
	for _, s := range recs {
		if !s.Scanned {
			t.Errorf("%s: lost despite re-scan", s.Domain)
		}
	}
}

// TestStudySlowAndStallFaults: every FaultConfig mode that still completes a
// handshake (slow write, short stall) must cost wall patience, not sites.
func TestStudySlowAndStallFaults(t *testing.T) {
	rep, _, recs := runStudy(t, Config{
		Sites: 6, Seed: 2, Vantages: 1, Concurrency: 6,
		Retries: 2,
		Faults: tlsserve.FaultConfig{
			StallHandshake: 5 * time.Millisecond,
			SlowWrite:      time.Millisecond,
		},
	})
	if rep.Lost != 0 {
		t.Errorf("lost sites = %d under stall+slow-write", rep.Lost)
	}
	for _, s := range recs {
		if !s.Scanned {
			t.Errorf("%s: never graded", s.Domain)
		}
	}
}
