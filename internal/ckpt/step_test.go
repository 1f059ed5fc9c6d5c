package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"emgo/internal/fault"
	"emgo/internal/obs"
)

type stepArt struct {
	N int `json:"n"`
}

// TestDoTable is the durable step's whole contract, one row per way a
// step can go: what the caller is told (resumed, note), what happens to
// the artifact that was there (quarantined, never still listed when the
// computation runs), and what the ckpt.* counters say.
func TestDoTable(t *testing.T) {
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
		arm      func() // faults for the step itself
		runErr   error

		resumed     bool
		quarantined bool // the planted artifact ends in quarantine/
		listedAfter bool
		note        []string // substrings, in order
		delta       counts   // every ckpt.* counter not named must not move
	}{
		{what: "not listed", validate: accept,
			listedAfter: true, note: []string{"wrote step.json"},
			delta: counts{"ckpt.writes": 1}},
		{what: "torn file", validate: accept,
			plant:       onDisk(func(p string) error { return os.Truncate(p, 3) }),
			quarantined: true, listedAfter: true,
			note:  []string{"checkpoint step.json not restored, recomputing", "artifact corrupt", "size 3, manifest says 7", "; wrote step.json"},
			delta: counts{"ckpt.corrupt": 1, "ckpt.quarantined": 1, "ckpt.writes": 1}},
		{what: "checksum mismatch", validate: accept,
			plant:       onDisk(func(p string) error { return os.WriteFile(p, []byte(`{"n":8}`), 0o644) }),
			quarantined: true, listedAfter: true,
			note:  []string{"not restored, recomputing", "checksum mismatch", "; wrote step.json"},
			delta: counts{"ckpt.corrupt": 1, "ckpt.quarantined": 1, "ckpt.writes": 1}},
		{what: "verified but undecodable", validate: accept,
			plant: func(t *testing.T, s *Store) {
				if err := s.Write(name, []byte(`{"n":"seven"}`)); err != nil {
					t.Fatal(err)
				}
			},
			quarantined: true, listedAfter: true,
			note:  []string{"not restored, recomputing", "artifact corrupt", "; wrote step.json"},
			delta: counts{"ckpt.hits": 1, "ckpt.corrupt": 1, "ckpt.quarantined": 1, "ckpt.writes": 1}},
		{what: "validator condemns", plant: good,
			validate:    func(*stepArt) error { return errors.New("foreign tables") },
			quarantined: true, listedAfter: true,
			note:  []string{"not restored, recomputing: failed validation, quarantined: foreign tables; wrote step.json"},
			delta: counts{"ckpt.hits": 1, "ckpt.quarantined": 1, "ckpt.writes": 1}},
		{what: "clean restore", plant: good, validate: accept,
			resumed: true, listedAfter: true, note: []string{"restored step.json"},
			delta: counts{"ckpt.hits": 1, "ckpt.resumed": 1}},
		{what: "nil validator accepts", plant: good,
			resumed: true, listedAfter: true, note: []string{"restored step.json"},
			delta: counts{"ckpt.hits": 1, "ckpt.resumed": 1}},
		{what: "save fails", validate: accept,
			arm:   func() { fault.Enable("ckpt.write", fault.Plan{FailFirst: 1}) },
			note:  []string{"checkpoint step.json not written"},
			delta: counts{"ckpt.write_failed": 1}},
		{what: "computation fails", validate: accept, runErr: errors.New("stage aborted"),
			delta: counts{}},
	}
	tracked := []string{"ckpt.hits", "ckpt.writes", "ckpt.corrupt", "ckpt.quarantined", "ckpt.resumed", "ckpt.write_failed"}
	for _, tc := range cases {
		t.Run(tc.what, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			if tc.plant != nil {
				tc.plant(t, openT(t, dir, "fp"))
			}
			s := openT(t, dir, "fp") // the restarted process
			obs.Enable()
			defer obs.Disable()
			if tc.arm != nil {
				tc.arm()
			}

			ran, kept := false, false
			resumed, note, err := Do(s, name, tc.validate,
				func() error {
					ran, kept = true, s.Has(name)
					return tc.runErr
				},
				func() stepArt { return stepArt{N: 7} })

			if !errors.Is(err, tc.runErr) {
				t.Fatalf("err = %v, want %v", err, tc.runErr)
			}
			if resumed != tc.resumed || ran == tc.resumed {
				t.Fatalf("resumed = %v, computation ran = %v", resumed, ran)
			}
			if kept {
				t.Fatal("artifact still listed while the computation runs")
			}
			if got := s.Has(name); got != tc.listedAfter {
				t.Fatalf("listed after the step = %v, want %v", got, tc.listedAfter)
			}
			_, qerr := os.Stat(filepath.Join(dir, quarantineDir, name+".0"))
			if (qerr == nil) != tc.quarantined {
				t.Fatalf("in quarantine = %v, want %v", qerr == nil, tc.quarantined)
			}
			rest := note
			for _, want := range tc.note {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("note %q lacks %q (in order %q)", note, want, tc.note)
				}
				rest = rest[i+len(want):]
			}
			if len(tc.note) == 0 && note != "" {
				t.Fatalf("note = %q, want none", note)
			}
			for _, c := range tracked {
				if got := obs.C(c).Value(); got != tc.delta[c] {
					t.Errorf("%s moved by %d, want %d", c, got, tc.delta[c])
				}
			}
		})
	}
}

// TestDoNilStore: without a store the step is the computation and
// nothing else — no snapshot is taken, so an uncheckpointed run pays
// nothing for being checkpointable.
func TestDoNilStore(t *testing.T) {
	ran := false
	resumed, note, err := Do(nil, "step.json",
		func(*stepArt) error { t.Fatal("validator called"); return nil },
		func() error { ran = true; return nil },
		func() stepArt { t.Fatal("snapshot taken"); return stepArt{} })
	if resumed || note != "" || err != nil || !ran {
		t.Fatalf("nil store: resumed=%v note=%q err=%v ran=%v", resumed, note, err, ran)
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
// (what a fresh run over an old directory does N times) is a quarantine,
// not corruption.
func TestQuarantineCountsCorruptOnlyForBadBytes(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	for _, n := range []string{"a.json", "b.json", "c.json"} {
		if err := s.Write(n, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	obs.Enable()
	defer obs.Disable()
	for _, n := range s.Names() {
		s.Quarantine(n, "fresh run")
	}
	if c, q := obs.C("ckpt.corrupt").Value(), obs.C("ckpt.quarantined").Value(); c != 0 || q != 3 {
		t.Fatalf("retiring 3 sound artifacts: ckpt.corrupt=%d ckpt.quarantined=%d, want 0 and 3", c, q)
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
	if c, q := obs.C("ckpt.corrupt").Value(), obs.C("ckpt.quarantined").Value(); c != 1 || q != 4 {
		t.Fatalf("after one torn read: ckpt.corrupt=%d ckpt.quarantined=%d, want 1 and 4", c, q)
	}
}

// TestNamesSorted pins the order callers walk a store in (cliutil
// retires artifacts in it): sorted, not the manifest map's.
func TestNamesSorted(t *testing.T) {
	s := openT(t, t.TempDir(), "fp")
	for i := 0; i < 24; i++ {
		if err := s.Write(fmt.Sprintf("art_%02d.json", (i*7)%24), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		if names := s.Names(); len(names) != 24 || !sort.StringsAreSorted(names) {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}
