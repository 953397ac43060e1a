package framelog

import (
	"io"
	"os"
)

// FS is every filesystem operation the stores perform, so their tests can
// inject faults — kill a write at any byte offset, fail any syscall — and
// prove the recovery contract instead of assuming it. Production code always
// uses OS.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// Open opens for reading (replay and positional reads).
	Open(name string) (File, error)
	// OpenFile opens with the given flags (an append-mode log handle).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Create truncates-or-creates for writing (a temp file, a fresh log).
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// Truncate cuts the named file to size (torn-tail repair).
	Truncate(name string, size int64) error
	// ReadDir lists a directory's file names, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making renames and file
	// creations durable — without it a crash can roll back a completed
	// rename or lose a freshly created log.
	SyncDir(dir string) error
}

// File is the subset of *os.File the stores use. ReadAt is safe for
// concurrent use, which is what lets the page store pread outside its lock.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Sync() error
}

// OS is the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) Create(name string) (File, error) { return os.Create(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents)) // os.ReadDir sorts by name
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
