package store

import (
	"io"
	"os"
)

// FS abstracts the handful of filesystem operations the durable write
// paths use (the WAL, SaveFile and the history store). Production code
// uses OS; the chaos harness substitutes a fault-injecting implementation
// to simulate short writes, fsync failures and crashes between temp-write
// and rename without touching the real syscall layer.
type FS interface {
	// Create creates (or truncates) the named file for writing — the WAL's
	// active segment goes through this, so injected write/sync faults land
	// on the group-commit path too.
	Create(name string) (File, error)
	// CreateTemp creates a new temporary file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
}

// File is the open-file surface the write paths need.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Chmod(mode os.FileMode) error
	Name() string
}

// osFS is the passthrough FS.
type osFS struct{}

func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// OS is the real filesystem.
var OS FS = osFS{}
