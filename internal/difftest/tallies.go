// Tally flattening: a Summary's additive counts as one flat counter map,
// the form in which two runs' summaries compare key by key.
package difftest

import "strconv"

// Prefixed tally keys for the map-valued summary fields.
const (
	tallyCausePrefix     = "cause."
	tallyPassPrefix      = "pass."
	tallyBuildFailPrefix = "buildfail."
)

// Tallies flattens the summary's additive counts into one counter map.
func (s *Summary) Tallies() map[string]int64 {
	t := map[string]int64{
		"total":                    int64(s.Total),
		"noncompliant":             int64(s.NonCompliant),
		"all_browsers_pass":        int64(s.AllBrowsersPass),
		"all_libraries_pass":       int64(s.AllLibrariesPass),
		"browser_discrepant":       int64(s.BrowserDiscrepant),
		"library_discrepant":       int64(s.LibraryDiscrepant),
		"browser_class_discrepant": int64(s.BrowserClassDiscrepant),
		"library_class_discrepant": int64(s.LibraryClassDiscrepant),
	}
	for c, n := range s.CauseCounts {
		t[tallyCausePrefix+strconv.Itoa(int(c))] = int64(n)
	}
	for name, n := range s.PerClientPass {
		t[tallyPassPrefix+name] = int64(n)
	}
	for name, n := range s.PerClientBuildFail {
		t[tallyBuildFailPrefix+name] = int64(n)
	}
	return t
}
