// Declarative assertions: the gates the shell benchmarks used to encode as
// cmp/jq pipelines, evaluated natively so a failed check names the files and
// values involved instead of a silent non-zero exit.
package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// evalAssert evaluates one assertion against the bindings; res is non-nil
// only for final (post-grid) asserts, which may reference cell records.
// Returns the record and an error when the assertion failed.
func evalAssert(a *Assert, vars map[string]any, res *Result) (AssertRecord, error) {
	ok, detail, err := checkAssert(a, vars, res)
	if err != nil {
		return AssertRecord{Kind: a.Kind, Detail: err.Error()}, err
	}
	rec := AssertRecord{Kind: a.Kind, Detail: detail, OK: ok}
	if !ok {
		return rec, fmt.Errorf("assert %s failed: %s", a.Kind, detail)
	}
	return rec, nil
}

func checkAssert(a *Assert, vars map[string]any, res *Result) (bool, string, error) {
	sub := func(s string) (string, error) { return substString(s, vars) }
	// An expected value written as a string may reference bindings
	// ("${n}"); resolve it to its typed value before comparing.
	want := a.Value
	if s, ok := want.(string); ok {
		v, err := subst(s, vars)
		if err != nil {
			return false, "", err
		}
		want = v
	}
	switch a.Kind {
	case "identical":
		pa, err := sub(a.A)
		if err != nil {
			return false, "", err
		}
		pb, err := sub(a.B)
		if err != nil {
			return false, "", err
		}
		da, err := os.ReadFile(pa)
		if err != nil {
			return false, "", err
		}
		db, err := os.ReadFile(pb)
		if err != nil {
			return false, "", err
		}
		if !bytes.Equal(da, db) {
			return false, fmt.Sprintf("%s and %s differ (%d vs %d bytes)", pa, pb, len(da), len(db)), nil
		}
		return true, fmt.Sprintf("%s == %s (%d bytes)", pa, pb, len(da)), nil

	case "exists":
		p, err := sub(a.File)
		if err != nil {
			return false, "", err
		}
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			return false, fmt.Sprintf("%s missing or empty", p), nil
		}
		return true, fmt.Sprintf("%s exists (%d bytes)", p, fi.Size()), nil

	case "json":
		p, err := sub(a.File)
		if err != nil {
			return false, "", err
		}
		got, err := jsonField(p, a.Path)
		if err != nil {
			return false, "", err
		}
		ok, err := compare(got, a.Op, want)
		if err != nil {
			return false, "", err
		}
		return ok, fmt.Sprintf("%s %s: %v %s %v", p, a.Path, got, a.Op, want), nil

	case "json_eq":
		pa, err := sub(a.AFile)
		if err != nil {
			return false, "", err
		}
		pb, err := sub(a.BFile)
		if err != nil {
			return false, "", err
		}
		va, err := jsonField(pa, a.APath)
		if err != nil {
			return false, "", err
		}
		vb, err := jsonField(pb, a.BPath)
		if err != nil {
			return false, "", err
		}
		ok, err := compare(va, "==", vb)
		if err != nil {
			return false, "", err
		}
		return ok, fmt.Sprintf("%s:%s (%v) vs %s:%s (%v)", pa, a.APath, va, pb, a.BPath, vb), nil

	case "jsonl_count":
		p, err := sub(a.File)
		if err != nil {
			return false, "", err
		}
		n, err := countJSONL(p, a.Where)
		if err != nil {
			return false, "", err
		}
		ok, err := compare(float64(n), a.Op, want)
		if err != nil {
			return false, "", err
		}
		where := ""
		if a.Where != "" {
			where = fmt.Sprintf(" with %q", a.Where)
		}
		return ok, fmt.Sprintf("%s: %d lines%s %s %v", p, n, where, a.Op, want), nil

	case "wall_ratio":
		if res == nil {
			return false, "", fmt.Errorf("wall_ratio is a final assert")
		}
		num, err := minWall(res, a.Cell, a.Step)
		if err != nil {
			return false, "", err
		}
		den, err := minWall(res, a.Base, a.Step)
		if err != nil {
			return false, "", err
		}
		if den == 0 {
			den = 1 // sub-millisecond baseline: treat as 1ms to stay defined
		}
		ratio := float64(num) / float64(den)
		return ratio <= a.Max,
			fmt.Sprintf("step %s: %s %dms / %s %dms = %.3f (max %.3f)", a.Step, a.Cell, num, a.Base, den, ratio, a.Max), nil

	default:
		return false, "", fmt.Errorf("unknown assert kind %q", a.Kind)
	}
}

// minWall is the fastest repeat of a step in a named cell — the usual
// benchmark statistic for wall-clock comparisons.
func minWall(res *Result, cellName, step string) (int64, error) {
	for _, c := range res.Cells {
		if c.Name != cellName {
			continue
		}
		best := int64(-1)
		for _, rep := range c.Repeats {
			if sr, ok := rep.Steps[step]; ok && !sr.Skipped {
				if best < 0 || sr.WallMS < best {
					best = sr.WallMS
				}
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("cell %q has no executed step %q", cellName, step)
		}
		return best, nil
	}
	return 0, fmt.Errorf("no cell named %q", cellName)
}

// jsonField loads a JSON file and walks a dot-separated object path. Metric
// maps use dotted key names ("study.grade.items"), so at each level the
// longest joined run of remaining segments that exists as a key wins:
// "counters.study.grade.items" resolves as counters → "study.grade.items".
func jsonField(path, field string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	parts := strings.Split(field, ".")
	for len(parts) > 0 {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("%s: %q is not an object at %q", path, field, parts[0])
		}
		matched := false
		for i := len(parts); i >= 1; i-- {
			key := strings.Join(parts[:i], ".")
			if val, ok := obj[key]; ok {
				v, parts, matched = val, parts[i:], true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("%s: no field %q in %q", path, parts[0], field)
		}
	}
	return v, nil
}

// countJSONL counts the record lines of a JSONL file; with where set, only
// lines whose JSON carries that field non-null count.
func countJSONL(path, where string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if where == "" {
			n++
			continue
		}
		var obj map[string]any
		if json.Unmarshal(sc.Bytes(), &obj) != nil {
			continue
		}
		if v, ok := obj[where]; ok && v != nil {
			n++
		}
	}
	return n, sc.Err()
}

// compare applies op between two values: numerically when both parse as
// numbers, by string equality otherwise (==/!= only).
func compare(got any, op string, want any) (bool, error) {
	if op == "" {
		op = "=="
	}
	gf, gerr := toFloat(got)
	wf, werr := toFloat(want)
	if gerr == nil && werr == nil {
		switch op {
		case "==":
			return gf == wf, nil
		case "!=":
			return gf != wf, nil
		case ">=":
			return gf >= wf, nil
		case "<=":
			return gf <= wf, nil
		case ">":
			return gf > wf, nil
		case "<":
			return gf < wf, nil
		}
		return false, fmt.Errorf("unknown op %q", op)
	}
	gs, ws := formatValue(got), formatValue(want)
	switch op {
	case "==":
		return gs == ws, nil
	case "!=":
		return gs != ws, nil
	}
	return false, fmt.Errorf("op %q needs numeric operands (%v, %v)", op, got, want)
}

// toFloat reads a captured or expected value as a number.
func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case string:
		n, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, fmt.Errorf("grid: %q is not numeric", x)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("grid: %v is not numeric", v)
	}
}
