package workflow

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/obs"
	"emgo/internal/table"
)

func openTestStore(t *testing.T, dir string) *ckpt.Store {
	t.Helper()
	store, err := ckpt.Open(dir, ckpt.Fingerprint("runctx-test"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func outcomeOf(t *testing.T, res *Result, step string) string {
	t.Helper()
	for _, e := range res.Log.Entries() {
		if e.Step == step {
			return e.Outcome
		}
	}
	t.Fatalf("no %q entry in log:\n%s", step, res.Log)
	return ""
}

func sameFinal(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Final.Len() != b.Final.Len() || a.Vetoed != b.Vetoed {
		t.Fatalf("runs diverge: final %d vs %d, vetoed %d vs %d",
			a.Final.Len(), b.Final.Len(), a.Vetoed, b.Vetoed)
	}
	for _, p := range a.Final.Pairs() {
		if !b.Final.Contains(p) {
			t.Fatalf("final missing %v", p)
		}
	}
}

func TestRunCtxCheckpointResume(t *testing.T) {
	w, tp := hardenedFixture(t)
	dir := t.TempDir()

	fresh, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Checkpoints: openTestStore(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"blocked", "learned"} {
		if out := outcomeOf(t, fresh, step); out != "" && out != obs.OutcomeOK {
			t.Fatalf("fresh run %s outcome = %q", step, out)
		}
	}

	// Both stage artifacts must exist on disk after the fresh run.
	store := openTestStore(t, dir)
	for _, name := range []string{ckptBlocked, ckptLearned} {
		if !store.Has(name) {
			t.Fatalf("artifact %s not persisted (have %v)", name, store.Names())
		}
	}

	resumed, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"blocked", "learned"} {
		if out := outcomeOf(t, resumed, step); out != obs.OutcomeResumed {
			t.Fatalf("resumed run %s outcome = %q, want %q", step, out, obs.OutcomeResumed)
		}
	}
	sameFinal(t, fresh, resumed)

	// Resume decisions show up in the machine-readable report too.
	var sawResumed bool
	for _, e := range resumed.Report.Provenance {
		if e.Outcome == obs.OutcomeResumed {
			sawResumed = true
		}
	}
	if !sawResumed {
		t.Fatal("no provenance entry with outcome=resumed in the run report")
	}
}

func TestRunCtxCheckpointCorruptionRecomputes(t *testing.T) {
	w, tp := hardenedFixture(t)
	dir := t.TempDir()

	fresh, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Checkpoints: openTestStore(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the blocked artifact on disk: the checksum no longer
	// matches the manifest, so resume must quarantine and recompute.
	path := filepath.Join(dir, ckptBlocked)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: store})
	if err != nil {
		t.Fatalf("corrupt checkpoint must fall back to recomputing, not fail: %v", err)
	}
	if out := outcomeOf(t, res, "blocked"); out == obs.OutcomeResumed {
		t.Fatal("corrupt blocked checkpoint was trusted")
	}
	// The learned artifact was untouched and still restores.
	if out := outcomeOf(t, res, "learned"); out != obs.OutcomeResumed {
		t.Fatalf("learned outcome = %q, want resumed", out)
	}
	sameFinal(t, fresh, res)

	// The corrupt artifact is preserved as evidence, not deleted.
	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("corrupt artifact not quarantined: %v (%d entries)", err, len(entries))
	}
}

func TestRunCtxCheckpointValidationRejectsForeignTables(t *testing.T) {
	w, tp := hardenedFixture(t)
	dir := t.TempDir()
	if _, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{
		Checkpoints: openTestStore(t, dir),
	}); err != nil {
		t.Fatal(err)
	}

	// Same store, but the right table lost its last row: shapes no longer
	// match, so the checksum-valid artifacts must fail semantic
	// validation and both stages recompute.
	keep, want := 0, tp.r.Len()-1
	shorter := tp.r.Select(tp.r.Name(), func(table.Row) bool {
		keep++
		return keep <= want
	})
	res, err := w.RunCtx(context.Background(), tp.l, shorter, RunOptions{
		Checkpoints: openTestStore(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"blocked", "learned"} {
		if out := outcomeOf(t, res, step); out == obs.OutcomeResumed {
			t.Fatalf("%s checkpoint for different tables was trusted", step)
		}
	}
}

// TestRunCtxCheckpointCondemnsQuarantineList: a learned artifact from a
// build that dropped failing pairs lists them under "quarantined", and
// its predictions leave them out. Restoring it would pass those pairs off
// as decided, so the store moves it to quarantine/ and the stage is
// recomputed.
func TestRunCtxCheckpointCondemnsQuarantineList(t *testing.T) {
	w, tp := hardenedFixture(t)
	dir := t.TempDir()
	fresh, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: openTestStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	planted := `{"left":"L","right":"R","left_rows":3,"right_rows":3,"pairs":[[2,2]],"quarantined":[[1,1]]}`
	if err := openTestStore(t, dir).Write(ckptLearned, []byte(planted)); err != nil {
		t.Fatal(err)
	}

	res, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: openTestStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if out := outcomeOf(t, res, "learned"); out == obs.OutcomeResumed {
		t.Fatal("a learned checkpoint with a quarantine list was resumed")
	}
	got, err := os.ReadFile(filepath.Join(dir, "quarantine", ckptLearned+".0"))
	if err != nil || string(got) != planted {
		t.Fatalf("planted artifact not in quarantine/: %q, %v", got, err)
	}
	sameFinal(t, fresh, res)
}

func TestRunCtxNilCheckpointsUnchanged(t *testing.T) {
	w, tp := hardenedFixture(t)
	plain, err := w.Run(tp.l, tp.r)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hard.Final.Len() != plain.Final.Len() {
		t.Fatalf("no-checkpoint run diverges: %d vs %d", hard.Final.Len(), plain.Final.Len())
	}
	var _ *block.CandidateSet = hard.Final
}
