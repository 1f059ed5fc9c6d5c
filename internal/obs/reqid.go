package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// Request identity: every served request carries one ID from the moment
// it enters the HTTP layer until its wide event is written: the response
// echoes it, and the access log keys the request's record by it. IDs
// are either minted here (16 hex chars of crypto randomness) or
// propagated from a client-supplied X-Request-Id header after
// sanitization — a caller's tracing system keeps its join key, but only
// within strict length and charset bounds so a hostile header can never
// smuggle log-breaking bytes into the access log.

// MaxRequestIDLen caps propagated request IDs. Anything longer is
// rejected (and replaced with a server-minted ID) rather than truncated,
// so two distinct client IDs can never collide by truncation.
const MaxRequestIDLen = 64

// reqSeq breaks ties when the random source fails (before Go 1.24
// crypto/rand.Read can return an error); IDs must never be empty or
// duplicated within a process.
var reqSeq atomic.Int64

// randBytes is the random source; tests replace it to reach the
// fallback. It returns the array by value: a slice passed through the
// variable would move every ID's bytes to the heap.
var randBytes = func() (b [8]byte, err error) {
	_, err = rand.Read(b[:])
	return b, err
}

// NewRequestID mints a 16-hex-char request ID.
func NewRequestID() string {
	b, err := randBytes()
	if err != nil {
		// Fall back to a process-unique counter, all of it; "r" keeps it
		// from ever colliding with the hex form.
		return "r" + strconv.FormatInt(reqSeq.Add(1), 16)
	}
	var id [2 * len(b)]byte // on the stack: the string is the one allocation
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// SanitizeRequestID validates a client-supplied request ID: at most
// MaxRequestIDLen bytes of [0-9A-Za-z._-]. It returns the ID and true
// when acceptable, "" and false otherwise (empty input included) — the
// caller mints a fresh ID then.
func SanitizeRequestID(raw string) (string, bool) {
	if raw == "" || len(raw) > MaxRequestIDLen {
		return "", false
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return "", false
		}
	}
	return raw, true
}
