//go:build race

package divfuzz

func init() { raceEnabled = true }
