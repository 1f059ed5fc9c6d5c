package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emgo/internal/obs"
)

type stepArt struct {
	N int `json:"n"`
}

// TestRestoreTable is the read half's whole contract, one row per way a
// restore can go: what the caller is told (restored, the error's words),
// what happens to the artifact that was there (quarantined, never still
// listed after a refusal), and what the ckpt.* counters say.
func TestRestoreTable(t *testing.T) {
	const name = "step.json"
	good := func(t *testing.T, s *Store) {
		if err := s.WriteJSON(name, stepArt{N: 7}); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := func(edit func(path string) error) func(*testing.T, *Store) {
		return func(t *testing.T, s *Store) {
			good(t, s)
			if err := edit(filepath.Join(s.dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	accept := func(a *stepArt) error {
		if a.N != 7 {
			return fmt.Errorf("n = %d", a.N)
		}
		return nil
	}
	type counts map[string]int64
	cases := []struct {
		what     string
		plant    func(*testing.T, *Store) // nil: nothing listed
		validate func(*stepArt) error

		restored    bool
		quarantined bool     // the planted artifact ends in quarantine/
		errWords    []string // substrings of the error, in order
		delta       counts   // every ckpt.* counter not named must not move
	}{
		{what: "not listed", validate: accept,
			errWords: []string{"artifact not found"}},
		{what: "torn file", validate: accept,
			plant:       onDisk(func(p string) error { return os.Truncate(p, 3) }),
			quarantined: true,
			errWords:    []string{"artifact corrupt", "size 3, manifest says 7"},
			delta:       counts{"ckpt.corrupt": 1}},
		{what: "checksum mismatch", validate: accept,
			plant:       onDisk(func(p string) error { return os.WriteFile(p, []byte(`{"n":8}`), 0o644) }),
			quarantined: true,
			errWords:    []string{"artifact corrupt", "checksum mismatch"},
			delta:       counts{"ckpt.corrupt": 1}},
		{what: "verified but undecodable", validate: accept,
			plant: func(t *testing.T, s *Store) {
				if err := s.Write(name, []byte(`{"n":"seven"}`)); err != nil {
					t.Fatal(err)
				}
			},
			quarantined: true,
			errWords:    []string{"artifact corrupt"},
			delta:       counts{"ckpt.hits": 1, "ckpt.corrupt": 1}},
		{what: "validator condemns", plant: good,
			validate:    func(*stepArt) error { return errors.New("foreign tables") },
			quarantined: true,
			errWords:    []string{"failed validation, quarantined: foreign tables"},
			delta:       counts{"ckpt.hits": 1}},
		{what: "clean restore", plant: good, validate: accept,
			restored: true, delta: counts{"ckpt.hits": 1}},
		{what: "nil validator accepts", plant: good,
			restored: true, delta: counts{"ckpt.hits": 1}},
	}
	tracked := []string{"ckpt.hits", "ckpt.corrupt"}
	for _, tc := range cases {
		t.Run(tc.what, func(t *testing.T) {
			dir := t.TempDir()
			if tc.plant != nil {
				tc.plant(t, openT(t, dir, "fp"))
			}
			s := openT(t, dir, "fp") // the restarted process
			obs.Enable()
			defer obs.Disable()

			art, err := Restore(s, name, tc.validate)
			if restored := err == nil; restored != tc.restored || restored && art.N != 7 {
				t.Fatalf("restored %+v, err = %v; want restored = %v", art, err, tc.restored)
			}
			if got := s.Has(name); got != tc.restored {
				t.Fatalf("listed after the restore = %v, want %v", got, tc.restored)
			}
			_, qerr := os.Stat(filepath.Join(dir, quarantineDir, name+".0"))
			if (qerr == nil) != tc.quarantined {
				t.Fatalf("in quarantine = %v, want %v", qerr == nil, tc.quarantined)
			}
			rest := fmt.Sprint(err)
			for _, want := range tc.errWords {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("error %q lacks %q (in order %q)", err, want, tc.errWords)
				}
				rest = rest[i+len(want):]
			}
			for _, c := range tracked {
				if got := obs.C(c).Value(); got != tc.delta[c] {
					t.Errorf("%s moved by %d, want %d", c, got, tc.delta[c])
				}
			}
		})
	}
}

// TestRestoreErrors: the read half names each way out with an error a
// caller can test for.
func TestRestoreErrors(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	if _, err := Restore[stepArt](s, "nope.json", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unlisted: %v", err)
	}
	if err := s.Write("bad.json", []byte("{")); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore[stepArt](s, "bad.json", nil); !errors.Is(err, ErrCorrupt) || s.Has("bad.json") {
		t.Fatalf("undecodable: %v (still listed: %v)", err, s.Has("bad.json"))
	}
	if err := s.WriteJSON("ok.json", stepArt{N: 1}); err != nil {
		t.Fatal(err)
	}
	if a, err := Restore[stepArt](s, "ok.json", nil); err != nil || a.N != 1 {
		t.Fatalf("clean: %+v, %v", a, err)
	}
}

// TestQuarantineCountsCorruptOnlyForBadBytes: retiring a sound artifact
// (what a validator's verdict does) is a quarantine, not corruption.
func TestQuarantineCountsCorruptOnlyForBadBytes(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	names := []string{"a.json", "b.json", "c.json"}
	for _, n := range names {
		if err := s.Write(n, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	obs.Enable()
	defer obs.Disable()
	quarantined := func() int {
		entries, _ := os.ReadDir(filepath.Join(s.dir, quarantineDir))
		return len(entries)
	}
	foreign := func(*int) error { return errors.New("foreign inputs") }
	for _, n := range names {
		if _, err := Restore(s, n, foreign); err == nil || s.Has(n) {
			t.Fatalf("%s: a condemned artifact was restored or is still listed (%v)", n, err)
		}
	}
	if c, q := obs.C("ckpt.corrupt").Value(), quarantined(); c != 0 || q != 3 {
		t.Fatalf("retiring 3 sound artifacts: ckpt.corrupt=%d, %d in quarantine/, want 0 and 3", c, q)
	}
	if err := s.Write("d.json", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(s.dir, "d.json"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("d.json"); !errors.Is(err, ErrCorrupt) {
		t.Fatal(err)
	}
	if c, q := obs.C("ckpt.corrupt").Value(), quarantined(); c != 1 || q != 4 {
		t.Fatalf("after one torn read: ckpt.corrupt=%d, %d in quarantine/, want 1 and 4", c, q)
	}
}
