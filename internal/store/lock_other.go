//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package store

import "os"

// lockDir opens <dir>/LOCK without locking it: this platform has no
// flock(2), so two stores on one directory are not caught here.
func lockDir(dir string) (*os.File, error) { return openLockFile(dir) }
