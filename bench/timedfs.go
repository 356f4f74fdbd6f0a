package main

import (
	"os"
	"strings"
	"sync"
	"time"

	"mdmatch/internal/store"
)

// timedFS wraps the production filesystem at the store.FS seam. It is
// the `fs` layer of the budget: every write and fsync the store issues
// is counted, and every fsync timed, here at the device boundary. It also remembers,
// per file, how many bytes were written and how many of those an fsync
// has covered, so crash() can discard exactly what a power cut would:
// killing a process leaves the OS cache intact, so the durability gate
// drops the unflushed bytes itself.
type timedFS struct {
	store.OSFS

	mu         sync.Mutex
	writes     int
	writeBytes int64
	syncS      []float64 // one entry per File.Sync, seconds
	files      map[string]*fileState
	// snapLoadS accumulates Open→Close of snapshot files: the streaming
	// decoder reads and decodes in one pass, so this is the load time.
	snapLoadS float64
}

type fileState struct{ written, synced int64 }

func newTimedFS() *timedFS { return &timedFS{files: map[string]*fileState{}} }

func (t *timedFS) track(name string, size int64) *fileState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &fileState{written: size, synced: size}
	t.files[name] = st
	return st
}

// Create implements store.FS.
func (t *timedFS) Create(name string) (store.File, error) {
	f, err := t.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, st: t.track(name, 0)}, nil
}

// OpenAppend implements store.FS. Bytes already in the file were
// written by an earlier process and count as flushed.
func (t *timedFS) OpenAppend(name string) (store.File, error) {
	f, err := t.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	var size int64
	if fi, err := os.Stat(name); err == nil {
		size = fi.Size()
	}
	return &timedFile{File: f, fs: t, st: t.track(name, size)}, nil
}

// Open implements store.FS, timing snapshot reads.
func (t *timedFS) Open(name string) (store.ReaderFile, error) {
	f, err := t.OSFS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".snap") {
		return f, err
	}
	return &timedReader{ReaderFile: f, fs: t, opened: time.Now()}, nil
}

// Rename implements store.FS.
func (t *timedFS) Rename(oldpath, newpath string) error {
	if err := t.OSFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	t.mu.Lock()
	if st, ok := t.files[oldpath]; ok {
		delete(t.files, oldpath)
		t.files[newpath] = st
	}
	t.mu.Unlock()
	return nil
}

// Remove implements store.FS.
func (t *timedFS) Remove(name string) error {
	t.mu.Lock()
	delete(t.files, name)
	t.mu.Unlock()
	return t.OSFS.Remove(name)
}

// Truncate implements store.FS.
func (t *timedFS) Truncate(name string, size int64) error {
	if err := t.OSFS.Truncate(name, size); err != nil {
		return err
	}
	t.mu.Lock()
	if st, ok := t.files[name]; ok {
		st.written = size
		if st.synced > size {
			st.synced = size
		}
	}
	t.mu.Unlock()
	return nil
}

// crash truncates every file this process wrote to its last-synced
// length and reports how many unflushed bytes that discarded.
func (t *timedFS) crash() (discarded int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, st := range t.files {
		if st.written > st.synced {
			if err := os.Truncate(name, st.synced); err != nil && !os.IsNotExist(err) {
				return discarded, err
			}
			discarded += st.written - st.synced
			st.written = st.synced
		}
	}
	return discarded, nil
}

// counters is a consistent copy of the tallies.
type fsCounters struct {
	writes     int
	writeBytes int64
	syncS      []float64
	snapLoadS  float64
}

func (t *timedFS) counters() fsCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fsCounters{
		writes: t.writes, writeBytes: t.writeBytes,
		syncS: append([]float64(nil), t.syncS...), snapLoadS: t.snapLoadS,
	}
}

type timedFile struct {
	store.File
	fs *timedFS
	st *fileState
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.writeBytes += int64(n)
	f.st.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0).Seconds()
	f.fs.mu.Lock()
	f.fs.syncS = append(f.fs.syncS, d)
	if err == nil {
		f.st.synced = f.st.written
	}
	f.fs.mu.Unlock()
	return err
}

type timedReader struct {
	store.ReaderFile
	fs     *timedFS
	opened time.Time
}

func (r *timedReader) Close() error {
	r.fs.mu.Lock()
	r.fs.snapLoadS += time.Since(r.opened).Seconds()
	r.fs.mu.Unlock()
	return r.ReaderFile.Close()
}
