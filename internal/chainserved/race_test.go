//go:build race

package chainserved

func init() { raceEnabled = true }
