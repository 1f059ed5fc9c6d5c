package ckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// This file holds the durability primitives the rest of the repository
// shares: write-to-temp + fsync + atomic rename. A crash at any moment
// leaves either the old file intact or the new file complete — never a
// truncated document. table.WriteCSVFile, ml model saves and the run
// reports use the same helpers, so every artifact the pipeline persists
// has the same guarantee.

// AtomicWriteFile writes data to path atomically: the bytes go to a
// temp file in the same directory (renames across filesystems are not
// atomic), are fsynced, and the temp file is renamed over path. The
// containing directory is fsynced afterwards so the rename itself is
// durable.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return AtomicWriteTo(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// AtomicWriteTo is AtomicWriteFile for streaming writers (CSV encoders,
// JSON encoders): write is handed the temp file and the same
// temp + fsync + rename + dir-fsync protocol applies. Parent
// directories are created as needed. The EMCKPT_KILL points of the
// path's base name fire before the temp file is created, between its
// sync and its rename, and after the directory sync (chaos.go).
//
// It never replaces what it does not own. A target that exists and is
// not a regular file — a device, a FIFO, or a link to one — is written
// in place, with no temp file and no rename: the protocol's guarantee is
// about files, and renaming over /dev/null would replace the device. A
// link to a file is resolved first, so the rename lands beside the file
// it names and the link stays.
func AtomicWriteTo(path string, perm os.FileMode, write func(w io.Writer) error) error {
	name := filepath.Base(path)
	chaosKill("before", name)
	if err := atomicWrite(path, perm, name, write); err != nil {
		return err
	}
	chaosKill("after", name)
	return nil
}

// atomicWrite is the protocol under AtomicWriteTo, with the mid
// kill-point of name between the temp file's sync and its rename.
func atomicWrite(path string, perm os.FileMode, name string, write func(w io.Writer) error) (err error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return writeInPlace(path, write)
	}
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	chaosKill("mid", name)
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeInPlace hands write the existing non-regular file at path, opened
// for writing: what a shell redirection does.
func writeInPlace(path string, write func(w io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse to sync directories (some CI overlays) are
// tolerated: the rename is still atomic, only its durability window
// widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncErr(err) {
		return fmt.Errorf("ckpt: sync dir %s: %w", dir, err)
	}
	return nil
}

// ignorableSyncErr reports whether a directory fsync failure is a
// filesystem limitation rather than a durability problem worth failing
// the write over.
func ignorableSyncErr(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EBADF)
}
