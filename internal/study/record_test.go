package study

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/population"
	"chainchaos/internal/tlsserve"
)

// marshalSiteRecord is the reflective encoder appendSiteRecord replaced,
// kept as its reference: json.Marshal over the site's SiteRecord.
func marshalSiteRecord(rank int, g scannedSite) ([]byte, error) {
	rec := SiteRecord{
		Rank:       rank,
		Domain:     g.site.Domain,
		Injected:   g.site.Injected.String(),
		Server:     g.site.Server,
		Scanned:    !g.lost,
		ScanErrors: g.errs.Total(),
		Rescanned:  g.rescanned,
		Scenario:   g.site.Scenario,
	}
	if !g.lost {
		rec.Compliant = g.site.Report.Compliant()
		rec.Leaf = fmt.Sprint(g.site.Report.Leaf)
		rec.OrderOK = g.site.Report.Order.SequentialOK
		rec.Completeness = fmt.Sprint(g.site.Report.Completeness.Class)
		rec.Verdicts = make(map[string]bool, len(core.Profiles))
		for i, p := range core.Profiles {
			rec.Verdicts[p.Name] = g.site.Verdicts[i] == core.VerdictOK
		}
	}
	return json.Marshal(rec)
}

// recordArgs are FuzzSiteRecord's inputs. Byte i of verdicts, modulo the
// number of verdict classes, is client i's class.
type recordArgs struct {
	rank                     int
	domain, server, scenario string
	injected, leaf, class    uint8
	lost, orderOK, orderBad  bool
	scanErrors               int
	rescanned                bool
	verdicts                 uint64
}

func (a recordArgs) scanned() scannedSite {
	g := scannedSite{site: &site{
		Domain: a.domain, Server: a.server, Scenario: a.scenario,
		Injected: defect(a.injected % 8), // every defect, and one past the last
	}}
	g.lost, g.rescanned, g.errs.Dial = a.lost, a.rescanned, a.scanErrors
	r := &g.site.Report
	r.Leaf = compliance.LeafPlacement(a.leaf % 6)
	r.Order.SequentialOK, r.Order.HasDuplicates = a.orderOK, a.orderBad
	r.Completeness.Class = compliance.Completeness(a.class % 4)
	for i := range g.site.Verdicts {
		g.site.Verdicts[i] = core.VerdictClass(a.verdicts>>(8*i)) % (core.VerdictOtherFailure + 1)
	}
	return g
}

func (a recordArgs) add(f *testing.F) {
	f.Add(a.rank, a.domain, a.server, a.scenario, a.injected, a.leaf, a.class,
		a.lost, a.orderOK, a.orderBad, a.scanErrors, a.rescanned, a.verdicts)
}

// recordSeeds decodes a stream of JSONL site records into fuzz seeds.
func recordSeeds(t testing.TB, jsonl []byte) []recordArgs {
	leaves := map[string]uint8{}
	for p := compliance.LeafPlacement(0); p < 6; p++ {
		leaves[p.String()] = uint8(p)
	}
	classes := map[string]uint8{}
	for c := compliance.Completeness(0); c < 4; c++ {
		classes[c.String()] = uint8(c)
	}
	injected := map[string]uint8{}
	for d := defect(0); d < 8; d++ {
		injected[d.String()] = uint8(d)
	}
	var seeds []recordArgs
	for _, rec := range decodeRecords(t, jsonl) {
		a := recordArgs{
			rank: rec.Rank, domain: rec.Domain, server: rec.Server, scenario: rec.Scenario,
			injected: injected[rec.Injected], leaf: leaves[rec.Leaf], class: classes[rec.Completeness],
			lost: !rec.Scanned, orderOK: rec.OrderOK, orderBad: rec.Scanned && !rec.Compliant,
			scanErrors: rec.ScanErrors, rescanned: rec.Rescanned,
		}
		for i, p := range core.Profiles {
			if !rec.Verdicts[p.Name] {
				a.verdicts |= uint64(core.VerdictUnknownIssuer) << (8 * i)
			}
		}
		seeds = append(seeds, a)
	}
	return seeds
}

// FuzzSiteRecord: appendSiteRecord writes exactly the bytes json.Marshal
// writes for the same SiteRecord, for any field values — strings that need
// HTML-safe escaping, U+2028, invalid UTF-8, any verdict vector — and
// appends to whatever the buffer already holds. The corpus is seeded with
// the records of a 12-site chaos study (cmd/study -chaos faults) and of a
// study replaying the scenario test file.
func FuzzSiteRecord(f *testing.F) {
	chaos := Config{
		Sites: 12, Seed: 1, Vantages: 1, Concurrency: 4,
		Faults: tlsserve.FaultConfig{FailFirst: 1, SlowWrite: time.Millisecond},
	}
	scenarios, err := population.LoadScenarios("../population/testdata/scenarios.json")
	if err != nil {
		f.Fatal(err)
	}
	replay := Config{Sites: 40, Seed: 3, Vantages: 1, Concurrency: 4, Scenarios: scenarios, ScenarioRate: 0.5}
	for _, cfg := range []Config{chaos, replay} {
		var buf bytes.Buffer
		if _, err := RunStream(context.Background(), cfg, Stream{Out: &buf}); err != nil {
			f.Fatal(err)
		}
		for _, a := range recordSeeds(f, buf.Bytes()) {
			a.add(f)
		}
	}
	recordArgs{
		rank: -7, domain: `<a href="x">&amp;\`, server: "nginx\u2028\u2029", scenario: "bad\xff\xfeutf8\x00\x1f\x7f",
		injected: 7, leaf: 5, class: 3, orderOK: true, scanErrors: 3, rescanned: true,
		verdicts: 0x0706050403020100,
	}.add(f)
	recordArgs{lost: true, scanErrors: 2, verdicts: 0x0101010101010101}.add(f)

	f.Fuzz(func(t *testing.T, rank int, domain, server, scenario string, injected, leaf, class uint8,
		lost, orderOK, orderBad bool, scanErrors int, rescanned bool, verdicts uint64) {
		g := recordArgs{
			rank: rank, domain: domain, server: server, scenario: scenario,
			injected: injected, leaf: leaf, class: class,
			lost: lost, orderOK: orderOK, orderBad: orderBad, scanErrors: scanErrors, rescanned: rescanned,
			verdicts: verdicts,
		}.scanned()
		want, err := marshalSiteRecord(rank, g)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix\n")
		got := appendSiteRecord(append([]byte(nil), prefix...), rank, g)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendSiteRecord:\n got %q\nwant %q", got[len(prefix):], want)
		}
	})
}

// TestStudyRecordsGolden pins the JSONL RunStream writes, byte for byte, for
// three studies: unique sites, a dedup run over a small slot pool (every
// site but a few dozen reads the verdict memo), and a scenario replay. The
// digests are those `cmd/study -vantages 1` prints for the same sites and
// flags. Worker-count and dedup tests compare two runs of one build; this
// one catches a change that moves every run alike, such as a reordered
// verdicts field.
func TestStudyRecordsGolden(t *testing.T) {
	scenarios, err := population.LoadScenarios("../population/testdata/scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"unique", Config{Sites: 300, Seed: 1, Vantages: 1},
			"03d6bcc8edd057e35f1eb85dfae3218ca887cb46ad5989c0d765e53a20d53630"},
		{"dedup", Config{Sites: 2000, Seed: 1, Vantages: 1, Reuse: 0.99, DistinctChains: 64, Dedup: true},
			"53c06cf562a2d0f0ab5c9ea97166ced46bd68ec67304b52b6379f4480e45c1f2"},
		{"scenarios", Config{Sites: 500, Seed: 1, Vantages: 1, Scenarios: scenarios, ScenarioRate: 0.05},
			"e32b7e318439f15d43d2cab7472ad8dcb52e161608f9969a1c28370d665e532e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, jsonl, _ := runStudy(t, tc.cfg)
			sum := sha256.Sum256(jsonl)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("records sha256 %s, want %s", got, tc.want)
			}
		})
	}
}
