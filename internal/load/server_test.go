package load

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for emserve: StartServer and
// Drain are a contract with a child process, so the tests below re-exec
// this binary with LOAD_FAKE_EMSERVE naming how the child should behave.
func TestMain(m *testing.M) {
	if mode := os.Getenv("LOAD_FAKE_EMSERVE"); mode != "" {
		fakeEmserve(mode)
	}
	os.Exit(m.Run())
}

// fakeEmserve records its arguments, publishes an address the way
// emserve does, waits for SIGTERM, and exits as mode says: "clean" keeps
// the whole drain contract, the others each break one clause of it.
func fakeEmserve(mode string) {
	args := os.Args[1:]
	if err := os.WriteFile(os.Getenv("LOAD_FAKE_ARGS"), []byte(strings.Join(args, "\n")), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	for i, a := range args {
		if a == "-addr-file" {
			if err := os.WriteFile(args[i+1], []byte("127.0.0.1:9\n"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	<-term
	code := 130
	switch mode {
	case "exit":
		code = 3
	case "race":
		fmt.Fprintln(os.Stderr, "WARNING: DATA RACE")
	}
	if mode != "leak" {
		fmt.Fprintln(os.Stderr, "emserve: no leaked goroutines")
	}
	os.Exit(code)
}

// TestStartServerAndDrainContract: the job tier is optional (an empty
// job dir passes no -job-dir), and Drain reports each clause of the
// graceful-exit contract — exit 130, the zero-leak line, no race
// report — as its own violation.
func TestStartServerAndDrainContract(t *testing.T) {
	for _, tc := range []struct {
		mode, jobDir, want string
	}{
		{"clean", "", ""},
		{"clean", "jobs", ""},
		{"exit", "", "exit 3, want 130"},
		{"leak", "", "zero-leak self-check"},
		{"race", "", "race detector fired"},
	} {
		name := tc.mode
		if tc.jobDir != "" {
			name += "_jobdir"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			argsFile := filepath.Join(dir, "args.txt")
			cfg := ServerConfig{Bin: os.Args[0], Args: []string{"-spec", "spec.json"}, WorkDir: dir}
			p, err := StartServer(context.Background(), cfg, tc.jobDir, "fake.err",
				[]string{"-job-workers", "1"},
				[]string{"LOAD_FAKE_EMSERVE=" + tc.mode, "LOAD_FAKE_ARGS=" + argsFile})
			if err != nil {
				t.Fatal(err)
			}
			if p.Addr != "127.0.0.1:9" {
				t.Fatalf("Addr = %q, want the address file's first line", p.Addr)
			}
			got, err := os.ReadFile(argsFile)
			if err != nil {
				t.Fatal(err)
			}
			args := strings.Split(string(got), "\n")
			want := []string{"-spec", "spec.json", "-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "fake.err.addr")}
			if tc.jobDir != "" {
				want = append(want, "-job-dir", tc.jobDir)
			}
			want = append(want, "-job-workers", "1")
			if strings.Join(args, " ") != strings.Join(want, " ") {
				t.Fatalf("server args = %q, want %q", args, want)
			}

			fails := p.Drain(10 * time.Second)
			switch {
			case tc.want == "" && len(fails) != 0:
				t.Fatalf("clean drain reported %q", fails)
			case tc.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.want)):
				t.Fatalf("drain reported %q, want exactly one violation naming %q", fails, tc.want)
			}
		})
	}
}
