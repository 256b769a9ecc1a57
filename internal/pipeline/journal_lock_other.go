//go:build !unix

package pipeline

import "os"

// Non-unix platforms have no flock; O_APPEND atomicity for small writes is
// the only guarantee between handles. One handle's appends are fully
// serialized by Journal.mu regardless.
func lockFile(*os.File)   {}
func unlockFile(*os.File) {}
