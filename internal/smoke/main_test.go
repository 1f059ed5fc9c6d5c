//go:build smoke

package smoke

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/load"
	"emgo/internal/table"
)

// The one data recipe every scenario shares.
const (
	dataScale = "0.1"
	dataSeed  = "5"
)

// Built once by TestMain: the binaries, the projected slice, the
// packaged spec, a record pool over the right table, and one match
// request that takes the learned path.
var (
	ctx               = context.Background()
	binDir            string
	left, right, spec string
	pool              *load.RecordPool
	probe             []byte
)

func TestMain(m *testing.M) {
	work, err := os.MkdirTemp("", "emsmoke-")
	if err == nil {
		err = setup(work)
	}
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke: setup:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(work)
	os.Exit(code)
}

// setup builds each binary and generates the shared data exactly once.
func setup(work string) error {
	binDir = filepath.Join(work, "bin")
	data := filepath.Join(work, "data")
	left = filepath.Join(data, "UMETRICSProjected.csv")
	right = filepath.Join(data, "USDAProjected.csv")
	spec = filepath.Join(work, "spec.json")
	if err := os.Mkdir(binDir, 0o755); err != nil {
		return err
	}
	steps := [][]string{
		{"go", "build", "-o", binDir + "/", "./cmd/emgen", "./cmd/emmatch", "./cmd/emmonitor", "./cmd/emload"},
		{"go", "build", "-race", "-o", binDir + "/", "./cmd/emserve", "./cmd/emcasestudy"},
		{bin("emgen"), "-scale", dataScale, "-seed", dataSeed, "-projected", "-out", data},
		{bin("emcasestudy"), "-scale", dataScale, "-seed", dataSeed, "-spec", spec},
	}
	for _, argv := range steps {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Dir = filepath.Join("..", "..") // the module root, for go build
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s: %v\n%s", strings.Join(argv, " "), err, out)
		}
	}
	var err error
	if pool, err = load.NewRecordPool(right); err != nil {
		return err
	}
	// No award number (so no sure rule fires) and a long title (so
	// blocking yields candidates and the learned matcher actually runs).
	t, err := table.ReadCSVFile(right, nil)
	if err != nil {
		return err
	}
	col, err := t.Col("AwardTitle")
	if err != nil {
		return err
	}
	for i := 0; i < t.Len(); i++ {
		if title := t.Row(i)[col].Str(); len(strings.Fields(title)) >= 4 {
			rec := map[string]any{"RecordId": fmt.Sprintf("probe-%d", i), "AwardTitle": title}
			probe, err = json.Marshal(map[string]any{"record": rec})
			return err
		}
	}
	return fmt.Errorf("no right-table title with >= 4 words in %s", right)
}

func bin(name string) string { return filepath.Join(binDir, name) }

// TestSmoke runs the five scenarios in sequence, printing one PASS line
// each; `-run TestSmoke/<name>` runs one.
func TestSmoke(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"serve", smokeServe},
		{"obs", smokeObs},
		{"load", smokeLoad},
		{"monitor", smokeMonitor},
		{"chaos", smokeChaos},
	} {
		t.Run(sc.name, func(t *testing.T) {
			start := time.Now()
			sc.run(t)
			if !t.Failed() {
				fmt.Printf("PASS %s (%.1fs)\n", sc.name, time.Since(start).Seconds())
			}
		})
	}
}

// server is one supervised emserve and the client aimed at it.
type server struct {
	*load.ServerProc
	c *load.Client
}

// start boots the race-built emserve over the shared spec and tables and
// registers the cleanup: kill whatever is still running and,
// if the scenario failed, show the tail of the server's log.
func start(t *testing.T, dir, name string, env []string, args ...string) *server {
	t.Helper()
	cfg := load.ServerConfig{
		Bin:     bin("emserve"),
		Args:    []string{"-spec", spec, "-left", left, "-right", right},
		WorkDir: dir,
	}
	p, err := load.StartServer(ctx, cfg, name+".err", args, env)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{p, load.NewClient(load.ClientConfig{BaseURL: p.BaseURL(), Timeout: 30 * time.Second}, pool)}
	t.Cleanup(func() {
		s.c.CloseIdle()
		p.Kill()
		if t.Failed() {
			log, _ := os.ReadFile(p.LogPath)
			if len(log) > 4000 {
				log = log[len(log)-4000:]
			}
			t.Logf("%s log tail:\n%s", name, log)
		}
	})
	return s
}

// drain SIGTERMs the server and holds it to the graceful-exit contract
// (exit 130, "no leaked goroutines", no DATA RACE) plus any log markers
// the scenario expects the drain to have left.
func (s *server) drain(t *testing.T, markers ...string) {
	t.Helper()
	for _, f := range s.Drain(30 * time.Second) {
		t.Error(f)
	}
	for _, m := range markers {
		if !s.LogContains(m) {
			t.Errorf("%s lacks %q", s.LogPath, m)
		}
	}
}

// call is one request through the load client; a transport error ends
// the scenario.
func (s *server) call(t *testing.T, method, path string, body []byte, hdr http.Header) (int, http.Header, []byte) {
	t.Helper()
	status, h, data, err := s.c.Call(ctx, method, path, body, hdr)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return status, h, data
}

// getJSON decodes one 200 answer.
func (s *server) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := s.c.GetJSON(ctx, path, v); err != nil {
		t.Fatal(err)
	}
}

// match sends the probe record under a request ID and requires the
// status and the ID's echo.
func (s *server) match(t *testing.T, id string, want int) []byte {
	t.Helper()
	status, h, data := s.call(t, http.MethodPost, "/v1/match", probe, http.Header{"X-Request-Id": {id}})
	if status != want {
		t.Fatalf("match %s = %d, want %d: %s", id, status, want, data)
	}
	if got := h.Get("X-Request-Id"); got != id {
		t.Errorf("match %s echoed X-Request-Id %q", id, got)
	}
	return data
}

// cli runs one of the built binaries to completion and returns its exit
// code and combined output.
func cli(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin(name), args...).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return 0, string(out)
}

// wantCLI holds one CLI run to its exit code and to fragments its
// output must contain.
func wantCLI(t *testing.T, what string, code int, out string, wantCode int, fragments ...string) {
	t.Helper()
	if code != wantCode {
		t.Errorf("%s exited %d, want %d:\n%s", what, code, wantCode, out)
	}
	wantFragments(t, what, out, fragments...)
}

func wantFragments(t *testing.T, what, text string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if !strings.Contains(text, f) {
			t.Errorf("%s lacks %q:\n%s", what, f, text)
		}
	}
}

// readFile returns a file's contents ("" with a failure when unreadable).
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
	}
	return string(data)
}

// events parses an -access-log file: one JSON document per line, and an
// unparseable line is a failure (the point of the log is jq-ability).
func events(t *testing.T, path string) []map[string]any {
	t.Helper()
	var docs []map[string]any
	for _, line := range strings.Split(readFile(t, path), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Errorf("access-log line is not JSON: %v\n%s", err, line)
			continue
		}
		docs = append(docs, doc)
	}
	return docs
}

// eventually polls cond every 100ms for up to 30s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
