// Package grid runs reproducible experiment grids: a declarative spec names
// the tools to build, the variable axes to sweep, and the steps to execute
// per cell, and the runner executes every (cell, repeat) sequentially —
// benchmarks share nothing — recording wall times, metrics snapshots, ledger
// roots, and assertion outcomes into one machine-readable summary plus a
// flat CSV. The spec is the experiment: re-running it with the same seeds
// reproduces the same outputs (and the same anchored Merkle roots), which is
// what makes a benchmark number auditable instead of anecdotal.
package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Spec is a grid description, loaded from JSON.
type Spec struct {
	// Name labels the grid; the default output file is BENCH_<name>.json.
	Name string `json:"name"`
	// Tools are command names built once from ./cmd/<tool> into the work
	// dir; a step whose argv[0] matches a tool runs the built binary.
	Tools []string `json:"tools,omitempty"`
	// Vars are the spec's default variables, overridable with -set. Axis
	// values and reserved vars (${dir}, ${work}, ${setup}, ${repeat},
	// ${cell}) shadow them inside a cell.
	Vars map[string]any `json:"vars,omitempty"`
	// Axes, in order, define the cell grid as their cross product. An axis
	// value may be a scalar (bound to the axis name) or an object binding
	// several variables at once (a tied axis).
	Axes []Axis `json:"axes,omitempty"`
	// Cells lists explicit cells instead of an axes product; each entry is
	// a variable map, with an optional "name" key. Mutually exclusive with
	// Axes.
	Cells []map[string]any `json:"cells,omitempty"`
	// Repeats runs every cell this many times (default 1); ${repeat} is the
	// zero-based index. Seeds are spec variables, so repeats are identical
	// by construction unless a step varies them explicitly.
	Repeats int `json:"repeats,omitempty"`
	// Setup steps run once, before any cell, in ${work}/setup — the place
	// for baselines later cells compare against.
	Setup []Step `json:"setup,omitempty"`
	// Steps run per (cell, repeat), in ${dir} = ${work}/cells/<cell>/r<N>.
	Steps []Step `json:"steps"`
	// Final asserts run after every cell completed; wall_ratio asserts live
	// here.
	Final []Assert `json:"final,omitempty"`
}

// Axis is one swept dimension.
type Axis struct {
	Name   string `json:"name"`
	Values []any  `json:"values"`
}

// Step is one command execution (or background daemon) within a cell.
type Step struct {
	// ID names the step in records and CSV rows; required, unique per list.
	ID string `json:"id"`
	// Run is the argv after substitution. argv[0] naming a spec tool runs
	// the built binary; anything else resolves through PATH (or relative to
	// the repo root, where the runner keeps its working directory).
	Run []string `json:"run"`
	// Env sets extra environment variables (values substituted).
	Env map[string]string `json:"env,omitempty"`
	// Stdout, when set, redirects the step's stdout to this file. The
	// runner always captures a copy for regex captures either way.
	Stdout string `json:"stdout,omitempty"`
	// Serve starts the step as a background daemon: the runner waits for
	// Ready to match the daemon's output, binds its first capture group to
	// ReadyVar (default "addr"), runs the remaining steps, and SIGTERMs the
	// daemon at the end of the repeat — a non-zero daemon exit fails the
	// cell. Serve-step asserts are evaluated after the drain.
	Serve    bool   `json:"serve,omitempty"`
	Ready    string `json:"ready,omitempty"`
	ReadyVar string `json:"ready_var,omitempty"`
	// When gates the step: it runs only when every listed variable equals
	// the given value in the cell's binding.
	When map[string]any `json:"when,omitempty"`
	// Captures bind regex capture groups over the step's combined output to
	// variables visible to later steps and asserts.
	Captures []Capture `json:"captures,omitempty"`
	// Metrics names a metrics-snapshot JSON the step wrote; it is parsed
	// and inlined into the repeat record under the step's ID.
	Metrics string `json:"metrics,omitempty"`
	// Ledger audits an output file against its checkpoint journal after the
	// step, recording the verification report (run root included) in the
	// repeat record. A failed audit fails the cell.
	Ledger *LedgerCheck `json:"ledger,omitempty"`
	// Asserts are checked after the step (after the drain, for Serve).
	Asserts []Assert `json:"asserts,omitempty"`
}

// Capture is one regex extraction from a step's output.
type Capture struct {
	Var   string `json:"var"`
	Regex string `json:"regex"`
}

// LedgerCheck parameterizes the post-step ledger audit.
type LedgerCheck struct {
	Out     string `json:"out"`
	Journal string `json:"journal"`
	Stage   string `json:"stage,omitempty"` // default "grade"
	Header  int    `json:"header,omitempty"`
	Sidecar string `json:"sidecar,omitempty"`
}

// Assert is one declarative check. Kind selects the fields that apply:
//
//   - identical:  A and B are byte-identical files
//   - exists:     File exists and is non-empty
//   - json:       field Path of JSON file File, compared via Op to Value
//   - json_eq:    field APath of AFile equals field BPath of BFile
//   - jsonl_count: number of lines in File (where field Where is present
//     and non-null, when set), compared via Op to Value
//   - wall_ratio: min wall of step Step in cell Cell over the same step in
//     cell Base is <= Max (final asserts only)
type Assert struct {
	Kind  string  `json:"kind"`
	A     string  `json:"a,omitempty"`
	B     string  `json:"b,omitempty"`
	File  string  `json:"file,omitempty"`
	Path  string  `json:"path,omitempty"`
	AFile string  `json:"a_file,omitempty"`
	APath string  `json:"a_path,omitempty"`
	BFile string  `json:"b_file,omitempty"`
	BPath string  `json:"b_path,omitempty"`
	Op    string  `json:"op,omitempty"`
	Value any     `json:"value,omitempty"`
	Where string  `json:"where,omitempty"`
	Cell  string  `json:"cell,omitempty"`
	Base  string  `json:"base,omitempty"`
	Step  string  `json:"step,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Load reads a JSON spec from path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("grid: %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("grid: %s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec has no name")
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("spec has no steps")
	}
	if len(s.Axes) > 0 && len(s.Cells) > 0 {
		return fmt.Errorf("axes and cells are mutually exclusive")
	}
	if s.Repeats < 0 {
		return fmt.Errorf("repeats %d is negative", s.Repeats)
	}
	for _, a := range s.Axes {
		if a.Name == "" || len(a.Values) == 0 {
			return fmt.Errorf("axis %q needs a name and at least one value", a.Name)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]Step{s.Setup, s.Steps} {
		for _, st := range list {
			if st.ID == "" {
				return fmt.Errorf("every step needs an id")
			}
			if seen[st.ID] {
				return fmt.Errorf("duplicate step id %q", st.ID)
			}
			seen[st.ID] = true
			if len(st.Run) == 0 {
				return fmt.Errorf("step %q has an empty run", st.ID)
			}
			if st.Serve && st.Ready == "" {
				return fmt.Errorf("serve step %q needs a ready regex", st.ID)
			}
			if st.Ready != "" {
				if _, err := regexp.Compile(st.Ready); err != nil {
					return fmt.Errorf("step %q ready regex: %w", st.ID, err)
				}
			}
			for _, c := range st.Captures {
				if _, err := regexp.Compile(c.Regex); err != nil {
					return fmt.Errorf("step %q capture %q: %w", st.ID, c.Var, err)
				}
			}
		}
	}
	return nil
}

// cell is one resolved grid point.
type cell struct {
	name string
	vars map[string]any
}

// cells expands the axes product (or the explicit cell list) into named
// cells. Axis order is significant: earlier axes vary slowest.
func (s *Spec) cells() ([]cell, error) {
	if len(s.Cells) > 0 {
		out := make([]cell, 0, len(s.Cells))
		for i, m := range s.Cells {
			c := cell{vars: map[string]any{}}
			for k, v := range m {
				if k == "name" {
					c.name, _ = v.(string)
					continue
				}
				c.vars[k] = v
			}
			if c.name == "" {
				c.name = fmt.Sprintf("cell%d", i)
			}
			out = append(out, c)
		}
		return out, nil
	}
	out := []cell{{name: "", vars: map[string]any{}}}
	for _, ax := range s.Axes {
		next := make([]cell, 0, len(out)*len(ax.Values))
		for _, base := range out {
			for _, v := range ax.Values {
				c := cell{name: base.name, vars: map[string]any{}}
				for k, bv := range base.vars {
					c.vars[k] = bv
				}
				label := ""
				if obj, ok := v.(map[string]any); ok {
					for k, ov := range obj {
						c.vars[k] = ov
					}
					if lv, ok := obj[ax.Name]; ok {
						label = fmt.Sprintf("%s=%s", ax.Name, formatValue(lv))
					} else {
						return nil, fmt.Errorf("axis %q object value must bind %q", ax.Name, ax.Name)
					}
				} else {
					c.vars[ax.Name] = v
					label = fmt.Sprintf("%s=%s", ax.Name, formatValue(v))
				}
				if c.name != "" {
					c.name += ","
				}
				c.name += label
				next = append(next, c)
			}
		}
		out = next
	}
	if len(out) == 1 && out[0].name == "" {
		out[0].name = "all"
	}
	return out, nil
}

// formatValue renders a variable for command lines and cell names: integers
// without exponents, floats via %v, everything else via fmt.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// ParseSet parses one -set k=v override, keeping numeric and boolean types
// as the spec's own JSON vars carry them.
func ParseSet(kv string) (string, any, error) {
	k, v, ok := strings.Cut(kv, "=")
	if !ok || k == "" {
		return "", nil, fmt.Errorf("grid: -set %q: want key=value", kv)
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil {
		return k, float64(n), nil
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		return k, f, nil
	}
	if b, err := strconv.ParseBool(v); err == nil {
		return k, b, nil
	}
	return k, v, nil
}
