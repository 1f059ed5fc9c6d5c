//go:build unix

package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestKillPointsLeaveOldOrNew re-executes the test binary with
// EMCKPT_KILL armed at each kill-point of a file and checks what the
// SIGKILL leaves. An AtomicWriteTo over an existing file leaves the old
// bytes when killed before or mid-write and the new bytes after, and only
// a mid kill leaves a temp file, holding the whole new document.
func TestKillPointsLeaveOldOrNew(t *testing.T) {
	if os.Getenv("EMCKPT_KILL") != "" {
		killPointChild() // never returns
	}
	for _, tc := range []struct{ spec, want string }{
		{spec: "before:out.csv", want: "old\n"},
		{spec: "mid:out.csv", want: "old\n"},
		{spec: "after:out.csv", want: "new\n"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "out.csv"), []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillPointsLeaveOldOrNew$")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "EMCKPT_KILL="+tc.spec)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || !strings.Contains(string(out), "chaos kill at "+tc.spec) {
			t.Fatalf("%s: the child was not killed there (%v):\n%s", tc.spec, err, out)
		}
		got, err := os.ReadFile(filepath.Join(dir, "out.csv"))
		if err != nil || string(got) != tc.want {
			t.Errorf("%s: the target holds %q (%v), want %q", tc.spec, got, err, tc.want)
		}
		// Only a mid kill leaves a temp file, and it holds every new byte.
		tmps, _ := filepath.Glob(filepath.Join(dir, "out.csv.tmp*"))
		switch mid := strings.HasPrefix(tc.spec, "mid:"); {
		case !mid && len(tmps) != 0, mid && len(tmps) != 1:
			t.Errorf("%s: temp files %v", tc.spec, tmps)
		case mid:
			if got, _ := os.ReadFile(tmps[0]); string(got) != "new\n" {
				t.Errorf("%s: the temp file holds %q, want the whole new document", tc.spec, got)
			}
		}
	}
}

// killPointChild is the re-executed process: it writes out.csv in its
// working directory and exits 0 if it lives.
func killPointChild() {
	if err := AtomicWriteFile("out.csv", []byte("new\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
