// Variable substitution for spec strings: ${name} references a binding (a
// default var, an axis value or a -set override), so a spec's command lines
// take their knobs from the cell without a template engine.
package grid

import (
	"fmt"
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
		v, err := lookup(strings.TrimSpace(expr), vars, depth)
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

// lookup resolves one ${name} body to its binding, substituting a binding
// that itself holds references.
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
