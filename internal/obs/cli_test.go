package obs

import (
	"strings"
	"testing"
	"time"
)

// TestCLIValidate: each ledger flag value the run could not honour is
// rejected with a diagnostic naming the offending flag, and every usable
// combination passes.
func TestCLIValidate(t *testing.T) {
	cases := []struct {
		name    string
		cli     CLI
		wantErr string // substring of the diagnostic; empty = valid
	}{
		{"zero-value", CLI{}, ""},
		{"ledger", CLI{LedgerBatch: 64, LedgerLatency: time.Second, LedgerSidecar: "leaves"}, ""},

		{"negative-ledger-batch", CLI{LedgerBatch: -1}, "-ledger-batch"},
		{"negative-ledger-latency", CLI{LedgerBatch: 64, LedgerLatency: -time.Second}, "-ledger-latency"},
		{"sidecar-without-ledger", CLI{LedgerSidecar: "leaves"}, "-ledger-sidecar"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cli.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}
