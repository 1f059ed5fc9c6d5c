//go:build smoke

package smoke

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// The case study the chaos scenario kills and reruns.
const (
	chaosScale = "0.15"
	chaosSeed  = "7"
)

// chaosOutputs are the study's output files, by flag, in a directory of
// their own: their base names are what EMCKPT_KILL arms.
var chaosOutputs = []struct{ flag, file string }{
	{"-out", "matches.csv"},
	{"-labels", "labels.csv"},
	{"-spec", "spec.json"},
}

// study runs the race-built emcasestudy over the chaos recipe, writing
// every output into dir, with a kill-point armed when killSpec is set,
// and returns its stdout, stderr and exit status — 137 for a SIGKILL, as
// a shell says it.
func study(t *testing.T, dir, killSpec string) ([]byte, string, int) {
	t.Helper()
	args := []string{"-scale", chaosScale, "-seed", chaosSeed}
	for _, o := range chaosOutputs {
		args = append(args, o.flag, filepath.Join(dir, o.file))
	}
	cmd := exec.Command(bin("emcasestudy"), args...)
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

// smokeChaos is the kill/rerun harness of the study's outputs: a golden
// (uncrashed) case study, then for every output file a run killed — by
// SIGKILL, so no cleanup code can cheat — before its temp file exists,
// between the temp file's sync and its rename, and after the rename is
// durable. Each kill must leave every output absent or byte-identical to
// golden, never torn: the one it killed absent before its rename and
// whole after it. A rerun over the same directory then writes a stdout
// report and files byte-identical to golden.
func smokeChaos(t *testing.T) {
	goldenDir := t.TempDir()
	golden, errText, code := study(t, goldenDir, "")
	if code != 0 {
		t.Fatalf("golden run exited %d:\n%s", code, errText)
	}
	want := map[string][]byte{}
	for _, o := range chaosOutputs {
		want[o.file] = []byte(readFile(t, filepath.Join(goldenDir, o.file)))
	}

	kills := 0
	for _, o := range chaosOutputs {
		for _, mode := range []string{"before", "mid", "after"} {
			spec := mode + ":" + o.file
			dir := t.TempDir()
			if _, errText, code := study(t, dir, spec); code != 137 {
				t.Errorf("kill at %s: exit %d, want 137 (SIGKILL):\n%s", spec, code, errText)
				continue
			}
			kills++
			for _, out := range chaosOutputs {
				got, err := os.ReadFile(filepath.Join(dir, out.file))
				switch {
				case err != nil && !os.IsNotExist(err):
					t.Errorf("kill at %s: %s: %v", spec, out.file, err)
				case err == nil && !bytes.Equal(got, want[out.file]):
					t.Errorf("kill at %s: %s is torn: %d bytes, golden has %d", spec, out.file, len(got), len(want[out.file]))
				case out.file == o.file && (err == nil) != (mode == "after"):
					t.Errorf("kill at %s: %s exists = %v, want %v", spec, out.file, err == nil, mode == "after")
				}
			}
			stdout, errText, code := study(t, dir, "")
			if code != 0 {
				t.Errorf("kill at %s: rerun exited %d:\n%s", spec, code, errText)
				continue
			}
			if !bytes.Equal(stdout, golden) {
				t.Errorf("kill at %s: the rerun's report differs from golden:\n%s", spec, stdout)
			}
			for _, out := range chaosOutputs {
				if got := readFile(t, filepath.Join(dir, out.file)); got != string(want[out.file]) {
					t.Errorf("kill at %s: the rerun's %s differs from golden", spec, out.file)
				}
			}
		}
	}
	if kills < 5 {
		t.Errorf("%d kill points fired, want at least 5", kills)
	}
}
