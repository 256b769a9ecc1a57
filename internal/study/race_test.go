//go:build race

package study

func init() { raceEnabled = true }
