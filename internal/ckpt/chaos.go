package ckpt

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Chaos kill-points let a harness (TestSmoke/chaos) kill the process at
// exact write boundaries instead of racing a sleep-and-SIGKILL against
// the pipeline. The EMCKPT_KILL environment variable names one
// kill-point as "<mode>:<file>", where file is the base name of an
// AtomicWriteTo target:
//
//	before:<file>  die before the temp file is created
//	mid:<file>     die after the temp file is written and synced, before
//	               its rename
//	after:<file>   die after the rename is durable
//
// The process dies by SIGKILL (os.Exit(137) where signals are
// unavailable), so no deferred cleanup runs — exactly the crash the
// writer must survive. Unset (the normal case), the checks are one
// sync.Once and a string compare.

var (
	chaosOnce sync.Once
	chaosMode string
	chaosName string
)

// chaosSpec parses EMCKPT_KILL once.
func chaosSpec() (mode, name string) {
	chaosOnce.Do(func() {
		spec := os.Getenv("EMCKPT_KILL")
		if spec == "" {
			return
		}
		m, n, ok := strings.Cut(spec, ":")
		if !ok {
			fmt.Fprintf(os.Stderr, "ckpt: ignoring malformed EMCKPT_KILL=%q (want mode:artifact)\n", spec)
			return
		}
		switch m {
		case "before", "mid", "after":
			chaosMode, chaosName = m, n
		default:
			fmt.Fprintf(os.Stderr, "ckpt: ignoring EMCKPT_KILL with unknown mode %q\n", m)
		}
	})
	return chaosMode, chaosName
}

// chaosKill dies at the kill-point (mode, name) when armed; otherwise
// returns.
func chaosKill(mode, name string) {
	if m, n := chaosSpec(); m != mode || n != name {
		return
	}
	fmt.Fprintf(os.Stderr, "ckpt: chaos kill at %s:%s\n", mode, name)
	kill()
}
