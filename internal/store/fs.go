package store

import (
	iofs "io/fs"
	"os"
)

// FS abstracts the filesystem operations the durability path performs —
// segment creation and appends, snapshot tmp+fsync+rename, garbage
// collection, and the read side of recovery. The production
// implementation is OSFS; tests substitute a fault-injecting wrapper
// (internal/fault) to prove recovery is exact under ENOSPC, fsync
// failure, torn writes and crashes at every operation index, and a
// degraded service keeps serving reads when the disk misbehaves.
//
// The interface is deliberately narrow: exactly the calls the store
// makes and no others. Every mutation of durable state flows
// through it, so an injected fault at operation index i is the complete
// failure model for "the i-th I/O this store ever did went wrong".
type FS interface {
	// MkdirAll creates the data directory (and parents) if absent.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(name string) (File, error)
	// ReadFile returns the whole contents of name.
	ReadFile(name string) ([]byte, error)
	// Open opens name for sequential reading (the streaming snapshot
	// decoder; segments still use ReadFile because records must fit in
	// maxRecordBytes anyway).
	Open(name string) (ReaderFile, error)
	// WriteFile replaces name with data (used only by torn-header
	// repair, where the file is already damaged).
	WriteFile(name string, data []byte) error
	// Rename atomically moves old to new (snapshot publication).
	Rename(oldpath, newpath string) error
	// Remove deletes a file (garbage collection).
	Remove(name string) error
	// Truncate cuts name to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// Stat returns file metadata (snapshot age/size at Open).
	Stat(name string) (iofs.FileInfo, error)
	// ReadDir lists the data directory.
	ReadDir(dir string) ([]iofs.DirEntry, error)
	// SyncDir flushes directory metadata so a freshly created or
	// renamed file survives a crash.
	SyncDir(dir string) error
}

// File is the writable-file surface the store needs: sequential writes,
// fsync, close.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// ReaderFile is the readable-file surface the store needs: sequential
// reads, close.
type ReaderFile interface {
	Read(p []byte) (int, error)
	Close() error
}

// OSFS is the production FS: direct calls into package os.
type OSFS struct{}

var _ FS = OSFS{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Open implements FS.
func (OSFS) Open(name string) (ReaderFile, error) { return os.Open(name) }

// WriteFile implements FS.
func (OSFS) WriteFile(name string, data []byte) error { return os.WriteFile(name, data, 0o644) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Stat implements FS.
func (OSFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]iofs.DirEntry, error) { return os.ReadDir(dir) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WithFS substitutes the filesystem implementation (default OSFS).
// Fault-injection tests wrap OSFS to fail exact operation indices;
// every durable byte flows through the configured FS.
func WithFS(fs FS) Option {
	return func(s *Store) {
		if fs != nil {
			s.fs = fs
		}
	}
}
