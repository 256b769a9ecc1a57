//go:build race

package certgen

func init() { raceEnabled = true }
