//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"fmt"
	"os"
	"syscall"
)

// lockDir opens <dir>/LOCK and takes an exclusive advisory flock on it
// without waiting. The lock belongs to the open file: closing the returned
// file releases it, and so does the death of the process that holds it, so
// a crashed node never leaves its directory locked.
func lockDir(dir string) (*os.File, error) {
	f, err := openLockFile(dir)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is in use by another store: lock %s: %w", dir, lockFile, err)
	}
	return f, nil
}
