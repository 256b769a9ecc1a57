// chainbuild constructs a certification path from a PEM bundle the way a
// chosen TLS client model would, showing which certificates were selected,
// what was fetched via AIA, and whether the result validates — the paper's
// client-side analysis for arbitrary inputs.
//
// Usage:
//
//	chainbuild -bundle chain.pem -roots roots.pem [-client Chrome] [-domain example.com] [-all]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/obs"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/rootstore"
)

// cli carries the shared observability flags; package-level so findProfile's
// error path can use the common Fatal.
var cli = obs.NewCLI("chainbuild")

func main() {
	bundle := flag.String("bundle", "", "PEM bundle as presented by the server (required)")
	rootsFile := flag.String("roots", "", "PEM bundle of trust anchors (defaults to self-signed certs in -bundle)")
	clientName := flag.String("client", "recommended", "client model: OpenSSL, GnuTLS, MbedTLS, CryptoAPI, Chrome, Edge, Safari, Firefox, or 'recommended'")
	domain := flag.String("domain", "", "hostname to validate against (optional)")
	at := flag.String("at", "", "validation time, RFC3339 (default: now)")
	useAIA := flag.Bool("aia", false, "allow live HTTP AIA fetching (network access)")
	all := flag.Bool("all", false, "run every client model and compare")
	traceFlag := flag.Bool("trace", false, "print the construction decision trace")
	cli.BindObs()
	flag.Parse()
	cli.Start()

	if *bundle == "" {
		fmt.Fprintln(os.Stderr, "usage: chainbuild -bundle chain.pem [flags]")
		os.Exit(2)
	}
	list, err := readBundle(*bundle)
	if err != nil {
		fatal(err)
	}
	roots := rootstore.New("cli")
	if *rootsFile != "" {
		anchors, err := readBundle(*rootsFile)
		if err != nil {
			fatal(err)
		}
		for _, c := range anchors {
			roots.Add(c)
		}
	} else {
		for _, c := range list {
			if c.SelfSigned() {
				roots.Add(c)
			}
		}
	}
	now := time.Now()
	if *at != "" {
		now, err = time.Parse(time.RFC3339, *at)
		if err != nil {
			fatal(fmt.Errorf("bad -at: %w", err))
		}
	}
	var fetcher aia.Fetcher
	if *useAIA {
		fetcher = &aia.HTTPFetcher{Client: &http.Client{Timeout: 10 * time.Second}}
	}

	profiles := clients.All()
	if !*all {
		profiles = []clients.Profile{findProfile(*clientName)}
	}
	trust := core.Trust{Roots: roots, Fetcher: fetcher, Now: now, Metrics: cli.Metrics}
	for _, p := range profiles {
		b := trust.Builder(p)
		if *traceFlag {
			b.Trace = &pathbuild.Trace{}
		}
		out := b.Build(list, *domain)
		fmt.Printf("=== %s ===\n", p.Name)
		if out.Err != nil {
			fmt.Printf("construction refused: %v\n\n", out.Err)
			continue
		}
		for i, c := range out.Path {
			fmt.Printf("  path[%d] %q (issuer %q)\n", i, c.Subject, c.Issuer)
		}
		fmt.Printf("  candidates considered: %d, paths tried: %d, AIA fetches: %d\n",
			out.CandidatesConsidered, out.PathsTried, out.AIAFetches)
		if out.Validation.OK {
			fmt.Println("  validation: OK")
		} else {
			fmt.Println("  validation: FAILED")
			for _, f := range out.Validation.Findings {
				fmt.Printf("    - %s\n", f)
			}
		}
		if b.Trace != nil {
			fmt.Println("  trace:")
			for _, line := range strings.Split(b.Trace.String(), "\n") {
				fmt.Println("    " + line)
			}
		}
		fmt.Println()
	}
	cli.Finish()
}

func readBundle(path string) ([]*certmodel.Certificate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return certmodel.ParsePEMBundle(data)
}

func findProfile(name string) clients.Profile {
	if name == "recommended" {
		return clients.Profile{Name: "recommended", Policy: pathbuild.DefaultPolicy()}
	}
	for _, p := range clients.All() {
		if p.Name == name {
			return p
		}
	}
	fatal(fmt.Errorf("unknown client %q", name))
	return clients.Profile{}
}

func fatal(err error) {
	cli.Fatal(err)
}
