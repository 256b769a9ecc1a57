package difftest

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"chainchaos/internal/core"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/population"
	"chainchaos/internal/validate"
)

// marshalRecordLine is the reflective encoder appendRecordLine replaced,
// kept as its reference: json.Marshal over the record's RecordLine.
func marshalRecordLine(rec *ChainRecord) ([]byte, error) {
	line := RecordLine{
		Rank:     rec.Domain.Rank,
		Domain:   rec.Domain.Name,
		CA:       rec.Domain.CA,
		Server:   rec.Domain.Server,
		Verdicts: make(map[string]string, len(rec.Verdicts)),
	}
	for _, v := range rec.Verdicts {
		line.Verdicts[v.Client] = v.Class().String()
	}
	for _, c := range rec.Causes {
		line.Causes = append(line.Causes, c.String())
	}
	return json.Marshal(line)
}

// classOutcomes holds, at index c, an outcome core.Classify puts in class c.
var classOutcomes = func() []pathbuild.Outcome {
	problem := func(p validate.Problem) pathbuild.Outcome {
		return pathbuild.Outcome{Validation: validate.Result{Findings: []validate.Finding{{Problem: p}}}}
	}
	out := []pathbuild.Outcome{
		core.VerdictOK:             {Validation: validate.Result{OK: true}},
		core.VerdictRejectedList:   {Err: errors.New("refused")},
		core.VerdictUnknownIssuer:  problem(validate.ProblemUntrusted),
		core.VerdictDateInvalid:    problem(validate.ProblemExpired),
		core.VerdictDomainMismatch: problem(validate.ProblemHostnameMismatch),
		core.VerdictRevoked:        problem(validate.ProblemRevoked),
		core.VerdictOtherFailure:   {},
	}
	for c, o := range out {
		if got := core.Classify(o); got != core.VerdictClass(c) {
			panic("classOutcomes: outcome " + got.String() + " at " + core.VerdictClass(c).String())
		}
	}
	return out
}()

// maxCause is the last Cause; FuzzRecordLine draws one past it too.
const maxCause = CauseI4AIA

// lineArgs are FuzzRecordLine's inputs. Client names are names split at
// NUL, the first 8 distinct ones; verdict i's class is bits 3i..3i+2 of
// classes, modulo the class count. The cause count is the low 4 bits of
// causes, modulo 5, and cause i is bits 4+3i..6+3i, modulo one past the
// last cause.
type lineArgs struct {
	rank               int
	domain, ca, server string
	names              string
	classes            uint32
	causes             uint16
}

func (a lineArgs) add(f *testing.F) {
	f.Add(a.rank, a.domain, a.ca, a.server, a.names, a.classes, a.causes)
}

func (a lineArgs) record() *ChainRecord {
	rec := &ChainRecord{Domain: &population.Domain{Rank: a.rank, Name: a.domain, CA: a.ca, Server: a.server}}
	var names []string
	for _, n := range strings.Split(a.names, "\x00") {
		if a.names != "" && len(names) < 8 && !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	for i, n := range names {
		class := (a.classes >> (3 * i) & 7) % uint32(len(classOutcomes))
		rec.Verdicts = append(rec.Verdicts, ClientVerdict{Client: n, Outcome: classOutcomes[class]})
	}
	for i := 0; i < int(a.causes&0xF)%5; i++ {
		rec.Causes = append(rec.Causes, Cause(int(a.causes>>(4+3*i)&7)%(int(maxCause)+2)))
	}
	return rec
}

// lineSeeds decodes JSONL record lines into fuzz seeds.
func lineSeeds(t testing.TB, jsonl []byte) []lineArgs {
	classes := map[string]uint32{}
	for c := range classOutcomes {
		classes[core.VerdictClass(c).String()] = uint32(c)
	}
	causes := map[string]uint16{}
	for c := Cause(0); c <= maxCause; c++ {
		causes[c.String()] = uint16(c)
	}
	var seeds []lineArgs
	for _, raw := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var rec RecordLine
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("record %q: %v", raw, err)
		}
		a := lineArgs{rank: rec.Rank, domain: rec.Domain, ca: rec.CA, server: rec.Server}
		var names []string
		for k := range rec.Verdicts {
			names = append(names, k)
		}
		slices.Sort(names)
		for i, n := range names {
			a.classes |= classes[rec.Verdicts[n]] << (3 * i)
		}
		a.names = strings.Join(names, "\x00")
		a.causes = uint16(len(rec.Causes))
		for i, c := range rec.Causes {
			a.causes |= causes[c] << (4 + 3*i)
		}
		seeds = append(seeds, a)
	}
	return seeds
}

// FuzzRecordLine: appendRecordLine writes exactly the bytes json.Marshal
// writes for the same RecordLine, for any domain, CA and server strings
// (HTML-safe escaping, U+2028, invalid UTF-8), 0–8 verdicts with distinct
// client names and 0–4 causes, and appends to whatever the buffer already
// holds. The corpus is seeded with the records of a 600-domain harness run.
func FuzzRecordLine(f *testing.F) {
	var out bytes.Buffer
	(&Harness{Workers: 2, Record: collect(&out)}).Run(population.Generate(population.Config{Size: 600, Seed: 1}))
	seeds := lineSeeds(f, out.Bytes())
	if len(seeds) == 0 {
		f.Fatal("the harness recorded no chain")
	}
	for _, a := range seeds {
		a.add(f)
	}
	lineArgs{
		rank: -7, domain: `<a href="x">&amp;\`, ca: "CA\u2028\u2029", server: "bad\xff\xfeutf8\x00\x1f\x7f",
		names: "Chrome\x00<script>\x00\xc3\x28\x00", classes: 0o1234567, causes: 4 | 0o4321<<4,
	}.add(f)
	lineArgs{}.add(f)

	f.Fuzz(func(t *testing.T, rank int, domain, ca, server, names string, classes uint32, causes uint16) {
		rec := lineArgs{rank, domain, ca, server, names, classes, causes}.record()
		want, err := marshalRecordLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix\n")
		got := appendRecordLine(append([]byte(nil), prefix...), rec)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendRecordLine:\n got %q\nwant %q", got[len(prefix):], want)
		}
	})
}
