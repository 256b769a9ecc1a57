// Variable substitution for spec strings: ${name} references a binding, and
// ${a/b}, ${a*b}, ${a+b}, ${a-b} compute simple integer (or float, when
// either operand is one) arithmetic over bindings or literals — enough for
// derived knobs like -sites ${sites*10} without a template engine.
package grid

import (
	"fmt"
	"strconv"
	"strings"
)

// maxSubstDepth bounds recursive resolution (a binding's value may itself
// contain ${...}, as tied-axis entries do).
const maxSubstDepth = 8

// subst resolves every ${...} in s against vars. When the whole string is a
// single reference, the binding's typed value is returned (so numbers stay
// numbers); otherwise the result is the concatenated string.
func subst(s string, vars map[string]any) (any, error) {
	return substDepth(s, vars, 0)
}

// substString is subst flattened to a string.
func substString(s string, vars map[string]any) (string, error) {
	v, err := subst(s, vars)
	if err != nil {
		return "", err
	}
	return formatValue(v), nil
}

func substDepth(s string, vars map[string]any, depth int) (any, error) {
	if depth > maxSubstDepth {
		return nil, fmt.Errorf("grid: substitution loop resolving %q", s)
	}
	start := strings.Index(s, "${")
	if start < 0 {
		return s, nil
	}
	var b strings.Builder
	b.WriteString(s[:start])
	rest := s[start:]
	first := true
	wholeStart := start == 0
	var whole any
	for {
		if !strings.HasPrefix(rest, "${") {
			i := strings.Index(rest, "${")
			if i < 0 {
				b.WriteString(rest)
				break
			}
			b.WriteString(rest[:i])
			rest = rest[i:]
			continue
		}
		end := strings.Index(rest, "}")
		if end < 0 {
			return nil, fmt.Errorf("grid: unterminated ${ in %q", s)
		}
		expr := rest[2:end]
		rest = rest[end+1:]
		v, err := evalExpr(expr, vars, depth)
		if err != nil {
			return nil, err
		}
		if first && wholeStart && b.Len() == 0 && rest == "" {
			whole = v
		}
		first = false
		b.WriteString(formatValue(v))
		if rest == "" {
			break
		}
	}
	if whole != nil {
		return whole, nil
	}
	out := b.String()
	if strings.Contains(out, "${") {
		return substDepth(out, vars, depth+1)
	}
	return out, nil
}

// evalExpr resolves one ${...} body: a bare name, or `a op b` with op one of
// + - * /.
func evalExpr(expr string, vars map[string]any, depth int) (any, error) {
	expr = strings.TrimSpace(expr)
	for _, op := range []string{"+", "-", "*", "/"} {
		if i := strings.Index(expr, op); i > 0 {
			a, err := operand(expr[:i], vars, depth)
			if err != nil {
				return nil, err
			}
			b, err := operand(expr[i+1:], vars, depth)
			if err != nil {
				return nil, err
			}
			return arith(a, b, op)
		}
	}
	return lookup(expr, vars, depth)
}

func lookup(name string, vars map[string]any, depth int) (any, error) {
	v, ok := vars[name]
	if !ok {
		return nil, fmt.Errorf("grid: undefined variable %q", name)
	}
	if s, ok := v.(string); ok && strings.Contains(s, "${") {
		return substDepth(s, vars, depth+1)
	}
	return v, nil
}

// operand resolves one side of an arithmetic expression: a numeric literal
// or a binding.
func operand(s string, vars map[string]any, depth int) (float64, error) {
	s = strings.TrimSpace(s)
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return n, nil
	}
	v, err := lookup(s, vars, depth)
	if err != nil {
		return 0, err
	}
	return toFloat(v)
}

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

func arith(a, b float64, op string) (any, error) {
	var r float64
	switch op {
	case "+":
		r = a + b
	case "-":
		r = a - b
	case "*":
		r = a * b
	case "/":
		if b == 0 {
			return nil, fmt.Errorf("grid: division by zero")
		}
		r = a / b
	}
	// Integer operands with an integral result stay integers, so command
	// lines read -sites 12500, not -sites 12500.000000.
	if a == float64(int64(a)) && b == float64(int64(b)) {
		if op == "/" {
			return float64(int64(a) / int64(b)), nil
		}
		if r == float64(int64(r)) {
			return r, nil
		}
	}
	return r, nil
}
