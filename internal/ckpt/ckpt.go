// Package ckpt is the repository's durable writes: the atomic file
// writers every persisted output goes through (atomic.go) — temp file,
// fsync, rename, directory fsync, so a crash at any instant leaves the
// old file or the new one, never a torn one — and the kill points that
// prove it. The EMCKPT_KILL environment variable lets a test kill the
// process at an exact write boundary (chaos.go); TestSmoke/chaos kills
// each study output there and reruns it byte-identically.
package ckpt
