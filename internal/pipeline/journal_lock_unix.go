//go:build unix

package pipeline

import (
	"os"
	"syscall"
)

// lockFile takes the file's advisory exclusive lock (flock). Appends are
// single write(2) calls and Journal.mu serializes one handle's appenders,
// so the lock's job is only to serialize the appends of separate handles
// on one file; EINTR is retried, any other failure degrades to the
// O_APPEND atomicity small writes already have.
func lockFile(f *os.File) {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return
		}
	}
}

// unlockFile releases the advisory lock.
func unlockFile(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN) //nolint:errcheck
}
