package report

import "encoding/json"

// AppendJSONString appends s to b as a JSON string, as encoding/json writes
// it. Printable ASCII other than `"`, `\`, `<`, `>` and `&` is copied as it
// is; a string holding any other byte is quoted by encoding/json, so its
// escaping (HTML-safe, U+2028 and U+2029, invalid UTF-8) holds exactly.
// Record encoders that skip reflection build their strings with it.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
