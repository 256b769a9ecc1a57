// divfuzz runs the coverage-guided divergence fuzzer over a synthetic seed
// population and reports the divergences it found, binned against the
// paper's I-1…I-4 classes.
//
// Usage:
//
//	divfuzz -seed 1 -generations 8 -mutants 256
//	divfuzz -seed 1 -manifest run.json -scenarios novel.json
//
// The manifest is deterministic: the same seed produces byte-identical
// manifests for any -workers value. -scenarios writes the novel divergences
// (topologies outside I-1…I-4) as a scenario file that cmd/genpop and
// cmd/study replay via -scenario-file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"chainchaos/internal/divfuzz"
	"chainchaos/internal/obs"
	"chainchaos/internal/run"
)

func main() {
	cli := obs.NewCLI("divfuzz")
	seed := flag.Int64("seed", 1, "fuzzer seed (drives the seed population and every mutation draw)")
	gens := flag.Int("generations", 8, "evolutionary rounds after the seed corpus")
	perGen := flag.Int("mutants", 256, "mutants bred per generation")
	seedDomains := flag.Int("seed-domains", 48, "seed population size")
	maxMuts := flag.Int("max-muts", 6, "maximum mutations per genome")
	dedup := flag.Bool("dedup", true, "share graded verdict vectors across identical list digests")
	manifest := flag.String("manifest", "", "write the deterministic run manifest (JSON) here")
	scenarios := flag.String("scenarios", "", "write novel divergences as an injectable scenario file here")
	// The divergence records are batch output, not a resumable stream: the
	// fuzzer is deterministic, so the file and its anchored roots are a pure
	// function of the seed, and the journal exists only as tamper evidence.
	rec := run.Records{Stage: "divergence"}
	rec.Bind("records", "write one JSONL line per confirmed divergence here, in discovery order",
		"records-journal", "anchor the -records lines' Merkle batch roots into this journal so cmd/ledgerverify -stage divergence can audit them")
	cli.BindWorkers("parallel evaluation workers (0 = GOMAXPROCS)")
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	cli.Start()
	defer cli.Finish()
	out, err := run.Open(cli, rec)
	if err != nil {
		cli.Fatal(err)
	}

	res, err := divfuzz.Run(context.Background(), divfuzz.Config{
		Seed:        *seed,
		Generations: *gens,
		PerGen:      *perGen,
		SeedDomains: *seedDomains,
		MaxMuts:     *maxMuts,
		Workers:     cli.Workers,
		Dedup:       *dedup,
		Metrics:     cli.Metrics,
	})
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("mutants evaluated:    %d\n", res.Mutants)
	fmt.Printf("corpus (signatures):  %d\n", len(res.Corpus))
	fmt.Printf("divergences:          %d\n", len(res.Divergences))
	bins := make([]string, 0, len(res.Bins))
	for b := range res.Bins {
		bins = append(bins, b)
	}
	sort.Strings(bins)
	for _, b := range bins {
		fmt.Printf("  %-6s %d\n", b, res.Bins[b])
	}
	for _, d := range res.Divergences {
		if d.Novel {
			fmt.Printf("novel: %s base=%d muts=%s sig=%s\n",
				d.Digest[:12], d.Minimized.Base, d.Minimized.Encode(), d.Signature)
		}
	}

	if *manifest != "" {
		b, err := res.Manifest().MarshalIndent()
		if err != nil {
			cli.Fatal(err)
		}
		if err := os.WriteFile(*manifest, b, 0o644); err != nil {
			cli.Fatal(err)
		}
	}
	if *scenarios != "" {
		b, err := json.MarshalIndent(res.Scenarios(), "", "  ")
		if err != nil {
			cli.Fatal(err)
		}
		if err := os.WriteFile(*scenarios, append(b, '\n'), 0o644); err != nil {
			cli.Fatal(err)
		}
	}
	if rec.Out != "" {
		// One compact ManifestEntry per confirmed divergence.
		for i, e := range res.Manifest().Divergences {
			line, err := json.Marshal(e)
			if err == nil {
				err = out.Emit(i, line)
			}
			if err != nil {
				cli.Fatal(err)
			}
		}
	}
	if err := out.Close(); err != nil {
		cli.Fatal(err)
	}
}
