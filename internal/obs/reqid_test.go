package obs

import (
	"errors"
	"strings"
	"testing"
)

func TestNewRequestIDFallbackNeverRepeats(t *testing.T) {
	defer func(prev func() ([8]byte, error)) { randBytes = prev }(randBytes)
	randBytes = func() ([8]byte, error) { return [8]byte{}, errors.New("no entropy") }
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		id := NewRequestID()
		if !strings.HasPrefix(id, "r") || seen[id] {
			t.Fatalf("fallback id %d = %q: want a fresh r-prefixed id", i, id)
		}
		seen[id] = true
	}
}
