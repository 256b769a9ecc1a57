// grid runs a reproducible experiment grid from a declarative spec: it
// builds the named tools, sweeps the spec's variable axes cell by cell
// (sequentially — wall numbers must not share the machine), repeats each
// cell with fixed seeds, audits ledgered outputs, and writes one
// machine-readable summary (BENCH_<name>.json) plus a flat CSV of
// per-(cell, repeat, step) wall times and anchored run roots.
//
// Usage:
//
//	grid -spec scripts/grids/pr10.json
//	grid -spec scripts/grids/pr6.json -set sites=100000 -set reuse=0.9995
//	grid -spec scripts/grids/ci_smoke.json -repeats 2 -work grid-work -out smoke.json
//
// Spec format (JSON): see internal/grid and the
// committed specs under scripts/grids/. scripts/bench_json.sh is a thin
// wrapper mapping the historical PR=pr6, pr8, pr9 and pr10 env-var
// invocations onto these specs.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"chainchaos/internal/grid"
)

// setFlags collects repeatable -set key=value overrides.
type setFlags map[string]any

func (s setFlags) String() string { return "" }
func (s setFlags) Set(kv string) error {
	k, v, err := grid.ParseSet(kv)
	if err != nil {
		return err
	}
	s[k] = v
	return nil
}

func main() {
	sets := setFlags{}
	specPath := flag.String("spec", "", "grid spec file (JSON)")
	out := flag.String("out", "", "summary JSON path (default BENCH_<name>.json)")
	csvPath := flag.String("csv", "", "per-(cell,repeat,step) CSV path (default <out>.csv next to -out)")
	work := flag.String("work", "", "work tree for tools and cell outputs (default: a temp dir, removed on success)")
	keep := flag.Bool("keep", false, "keep the temp work tree (ignored when -work is set: explicit trees always stay)")
	repeats := flag.Int("repeats", 0, "override the spec's repeat count")
	cellsRe := flag.String("cells", "", "only run cells whose name matches this regexp")
	flag.Var(sets, "set", "override a spec variable, key=value (repeatable)")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "grid: %v\n", err)
		os.Exit(1)
	}
	if *specPath == "" {
		fatal(fmt.Errorf("-spec is required"))
	}
	spec, err := grid.Load(*specPath)
	if err != nil {
		fatal(err)
	}

	workDir := *work
	cleanup := func() {}
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "grid-"+spec.Name+"-")
		if err != nil {
			fatal(err)
		}
		workDir = tmp
		if !*keep {
			cleanup = func() { os.RemoveAll(tmp) }
		} else {
			fmt.Fprintf(os.Stderr, "grid: work tree kept at %s\n", tmp)
		}
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}

	var filter *regexp.Regexp
	if *cellsRe != "" {
		if filter, err = regexp.Compile(*cellsRe); err != nil {
			fatal(err)
		}
	}

	r := &grid.Runner{
		Spec: spec, Work: workDir, Sets: sets,
		Repeats: *repeats, CellFilter: filter,
	}
	res, err := r.Run()
	if err != nil {
		fatal(err)
	}
	cleanup()

	outPath := *out
	if outPath == "" {
		outPath = "BENCH_" + spec.Name + ".json"
	}
	if err := res.WriteJSON(outPath); err != nil {
		fatal(err)
	}
	cp := *csvPath
	if cp == "" {
		cp = outPath + ".csv"
	}
	if err := res.WriteCSV(cp); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "grid: wrote %s and %s\n", outPath, cp)
}
