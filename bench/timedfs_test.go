package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTimedFSCrashDiscardsUnflushedBytes(t *testing.T) {
	dir := t.TempDir()
	fs := newTimedFS()
	path := filepath.Join(dir, "wal.log")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	// A second file that is written, never synced, then renamed: the
	// rename must carry the bookkeeping along.
	tmp := filepath.Join(dir, "snap.tmp")
	g, err := fs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("half a snapshot")); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "snap.snap")
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}

	discarded, err := fs.crash()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("volatile") + len("half a snapshot")); discarded != want {
		t.Errorf("discarded %d bytes, want %d", discarded, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Errorf("after the crash the log holds %q, want only the synced prefix", got)
	}
	if fi, err := os.Stat(final); err != nil || fi.Size() != 0 {
		t.Errorf("renamed unsynced file: %v, size %d; want size 0", err, fi.Size())
	}
	c := fs.counters()
	if c.writes != 3 || len(c.syncS) != 1 || c.writeBytes != int64(len("durable!volatilehalf a snapshot")) {
		t.Errorf("counters %+v", c)
	}
}

func TestTimedFSOpenAppendCountsExistingBytesAsFlushed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	if err := os.WriteFile(path, []byte("from an earlier process"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := newTimedFS()
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+tail")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.crash(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "from an earlier process" {
		t.Errorf("after the crash: %q", got)
	}
}
