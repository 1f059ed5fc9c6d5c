package ckpt

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Chaos kill-points let the chaos harness (TestSmoke/chaos) kill
// the process at exact checkpoint boundaries instead of racing a
// sleep-and-SIGKILL against the pipeline. The EMCKPT_KILL environment
// variable names one kill-point as "<mode>:<artifact>":
//
//	before:<artifact>  die before any byte of the artifact is written
//	mid:<artifact>     die after persisting a torn half-written temp file
//	after:<artifact>   die after the artifact and manifest are committed
//
// The process dies by SIGKILL (os.Exit(137) where signals are
// unavailable), so no deferred cleanup runs — exactly the crash the
// store must survive. Unset (the normal case), the checks are one
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

// chaosArmed reports whether the kill-point (mode, artifact) is armed.
func chaosArmed(mode, name string) bool {
	m, n := chaosSpec()
	return m == mode && n == name
}

// chaosKill dies at the kill-point when armed; otherwise returns.
func chaosKill(mode, name string) {
	if !chaosArmed(mode, name) {
		return
	}
	fmt.Fprintf(os.Stderr, "ckpt: chaos kill at %s:%s\n", mode, name)
	kill()
}
