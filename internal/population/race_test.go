//go:build race

package population

func init() { raceEnabled = true }
