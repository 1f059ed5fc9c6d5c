//go:build smoke

package smoke

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// The case study the chaos scenario kills and resumes.
const (
	chaosScale = "0.15"
	chaosSeed  = "7"
)

// study runs the race-built emcasestudy over the chaos recipe, with a
// checkpoint kill-point armed when killSpec is set, and returns its
// stdout, stderr and exit status — 137 for a SIGKILL, as a shell says it.
func study(t *testing.T, killSpec string, args ...string) ([]byte, string, int) {
	t.Helper()
	cmd := exec.Command(bin("emcasestudy"), append([]string{"-scale", chaosScale, "-seed", chaosSeed}, args...)...)
	if killSpec != "" {
		cmd.Env = append(os.Environ(), "EMCKPT_KILL="+killSpec)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		t.Fatalf("emcasestudy: %v", err)
	}
	code := cmd.ProcessState.ExitCode()
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
		code = 128 + int(ws.Signal())
	}
	return stdout.Bytes(), stderr.String(), code
}

// smokeChaos is the kill/resume harness of the checkpointing layer: a
// golden (uncrashed) case study, then for every section checkpoint a run
// killed — by SIGKILL, so no cleanup code can cheat — before the artifact
// is written and another right after it commits, one killed mid-write (a
// torn temp file on disk, to be swept on reopen and never trusted), each
// resumed to a stdout report and match CSV byte-identical to golden; and
// a committed artifact with one byte flipped, which the resume must
// quarantine, recompute, and still converge to golden.
func smokeChaos(t *testing.T) {
	dir := t.TempDir()
	goldenCSV := filepath.Join(dir, "golden.csv")
	golden, errText, code := study(t, "", "-out", goldenCSV)
	if code != 0 {
		t.Fatalf("golden run exited %d:\n%s", code, errText)
	}
	wantCSV := readFile(t, goldenCSV)
	resume := func(what, ckpt string) {
		t.Helper()
		csv := ckpt + ".csv"
		out, errText, code := study(t, "", "-checkpoint-dir", ckpt, "-resume", "-out", csv)
		switch {
		case code != 0:
			t.Errorf("%s: resume exited %d:\n%s", what, code, errText)
		case !bytes.Equal(out, golden):
			t.Errorf("%s: the resumed report differs from golden:\n%s", what, out)
		case readFile(t, csv) != wantCSV:
			t.Errorf("%s: the resumed matches differ from golden", what)
		}
	}

	var kills []string
	for _, section := range []string{"blocking", "labeling", "matching", "updating", "estimating"} {
		kills = append(kills, "before:study."+section+".json", "after:study."+section+".json")
	}
	kills = append(kills, "mid:study.matching.json")
	for i, spec := range kills {
		ckpt := filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))
		if _, errText, code := study(t, spec, "-checkpoint-dir", ckpt, "-resume"); code != 137 {
			t.Errorf("kill at %s: exit %d, want 137 (SIGKILL):\n%s", spec, code, errText)
			continue
		}
		resume("kill at "+spec, ckpt)
	}

	ckpt := filepath.Join(dir, "ckpt-corrupt")
	if _, errText, code := study(t, "", "-checkpoint-dir", ckpt); code != 0 {
		t.Fatalf("corrupt: checkpointed run exited %d:\n%s", code, errText)
	}
	art := filepath.Join(ckpt, "study.matching.json")
	data, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] = 0xff
	if err := os.WriteFile(art, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resume("corrupt", ckpt)
	if q, _ := os.ReadDir(filepath.Join(ckpt, "quarantine")); len(q) == 0 {
		t.Error("corrupt: the corrupted artifact was not quarantined")
	}
}
