package ckpt

import "testing"

func TestFingerprintHelper(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint must length-prefix parts")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Fatal("fingerprint must be deterministic")
	}
	if len(Fingerprint()) != 64 {
		t.Fatal("fingerprint should be a sha256 hex digest")
	}
}
