package population

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"chainchaos/internal/certmodel"
)

// FuzzScenarioJSON: arbitrary bytes decoded as a scenario file must never
// panic the decoder or Materialize, and every certificate a scenario
// materializes must survive CertSpecOf → Certificate byte for byte — the
// round trip divfuzz relies on when it writes the scenarios it finds.
func FuzzScenarioJSON(f *testing.F) {
	file, err := os.ReadFile("testdata/scenarios.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	var scenarios []Scenario
	if err := json.Unmarshal(file, &scenarios); err != nil {
		f.Fatal(err)
	}
	for _, s := range scenarios {
		one, _ := json.Marshal([]Scenario{s})
		f.Add(one)
	}
	// One scenario per issuer, its whole hierarchy as the list.
	for _, iss := range NewSource(Config{Size: 1}).Population().Issuers {
		s := Scenario{Name: "issuer-" + iss.Profile.Name + "-" + iss.Tag, Domain: "seed.example"}
		for _, c := range append([]*certmodel.Certificate{iss.Root, iss.CrossRoot, iss.CrossSigned, iss.RootCrossSigned}, iss.Intermediates...) {
			s.Certs = append(s.Certs, CertSpecOf(c))
		}
		one, _ := json.Marshal([]Scenario{s})
		f.Add(one)
	}
	for _, s := range []string{
		`[]`, `[{}]`, `{"name":1}`, `null`,
		`[{"name":"x","certs":[{"key_id":"zz"}]}]`,
		`[{"name":"x","certs":[{"not_before":-9223372036854775808,"not_after":9223372036854775807,"akid_override":"00","max_path_len":-1,"has_path_len":true,"ext_key_usages":[-3,99]}]}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var scenarios []Scenario
		if json.Unmarshal(data, &scenarios) != nil {
			return
		}
		for _, s := range scenarios {
			m, err := s.Materialize()
			if err != nil {
				continue
			}
			_, aia := m.AIAEntries()
			for _, c := range append(append(m.List, m.Roots...), aia...) {
				again, err := CertSpecOf(c).Certificate()
				if err != nil {
					t.Fatalf("CertSpecOf(%s) does not materialize: %v", c, err)
				}
				if !bytes.Equal(again.Raw, c.Raw) {
					t.Fatalf("CertSpecOf round trip differs:\n got %q\nwant %q", again.Raw, c.Raw)
				}
			}
		}
	})
}
