//go:build unix

package ckpt

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestAtomicWriteToWritesIntoAFIFO: a target that is not a regular file
// is written in place, never renamed over. A FIFO stands in for a device
// such as /dev/null, which a test must never risk replacing.
func TestAtomicWriteToWritesIntoAFIFO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// A non-blocking reader opens at once, so the writer's open does not
	// wait for one; reads still block, through the poller, until EOF.
	r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := AtomicWriteFile(path, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("the FIFO was replaced by a %v", fi.Mode())
	}
	r.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a FIFO is pollable
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n" {
		t.Fatalf("the FIFO's reader got %q", got)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("the directory holds %d entries, want the FIFO alone", len(entries))
	}
}

// TestAtomicWriteToFollowsASymlink: the rename lands beside the file the
// link names, in the link target's directory, and the link stays a link.
func TestAtomicWriteToFollowsASymlink(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "data", "matches.csv")
	if err := os.WriteFile(target, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "latest.csv")
	if err := os.Symlink(filepath.Join("data", "matches.csv"), link); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(link, []byte("new\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Lstat(link)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the link was replaced by a %v", fi.Mode())
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new\n" {
		t.Fatalf("the linked file holds %q", got)
	}
}
