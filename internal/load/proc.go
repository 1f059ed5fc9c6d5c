package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// ServerConfig describes how to spawn an emserve under a harness's
// supervision (the smoke suite): the binary, the base argument list
// (spec, tables, matcher — everything EXCEPT the listen/addr-file
// plumbing the supervisor owns), and a scratch directory for logs and
// address files.
type ServerConfig struct {
	Bin     string
	Args    []string
	WorkDir string
}

// ServerProc is one supervised emserve process. The supervisor owns the
// address file and stderr log so the drain contract can be asserted from
// the log.
type ServerProc struct {
	Addr    string
	LogPath string

	cmd  *exec.Cmd
	done chan error
}

// StartServer boots one emserve plus any extra flags (fault plans, the
// observability surface) and environment, and waits for its address
// file.
func StartServer(ctx context.Context, cfg ServerConfig, logName string, extraArgs, extraEnv []string) (*ServerProc, error) {
	logPath := filepath.Join(cfg.WorkDir, logName)
	addrFile := filepath.Join(cfg.WorkDir, logName+".addr")
	_ = os.Remove(addrFile)
	logF, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}

	args := append([]string{}, cfg.Args...)
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	args = append(args, extraArgs...)
	cmd := exec.Command(cfg.Bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = logF
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, fmt.Errorf("load: start %s: %w", cfg.Bin, err)
	}
	p := &ServerProc{LogPath: logPath, cmd: cmd, done: make(chan error, 1)}
	go func() {
		err := cmd.Wait()
		logF.Close()
		p.done <- err
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, rerr := os.ReadFile(addrFile); rerr == nil && len(bytes.TrimSpace(data)) > 0 {
			p.Addr = strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[0])
			return p, nil
		}
		select {
		case werr := <-p.done:
			return nil, fmt.Errorf("load: %s died during startup (%v); log %s:\n%s",
				cfg.Bin, werr, logPath, tailFile(logPath, 2000))
		case <-ctx.Done():
			p.Kill()
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("load: %s never wrote its address file; log %s:\n%s",
				cfg.Bin, logPath, tailFile(logPath, 2000))
		}
	}
}

// BaseURL is the supervised server's HTTP root.
func (p *ServerProc) BaseURL() string { return "http://" + p.Addr }

// waitExit blocks until the process exits and returns its exit code; -1
// means killed by signal.
func (p *ServerProc) waitExit(timeout time.Duration) (int, error) {
	select {
	case err := <-p.done:
		p.done <- err // keep the channel readable for later callers
		if err == nil {
			return 0, nil
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil
		}
		return -1, err
	case <-time.After(timeout):
		return 0, fmt.Errorf("load: server still running after %v", timeout)
	}
}

// Kill force-terminates the process (the cleanup path).
func (p *ServerProc) Kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	<-p.done
	p.done <- nil
}

// Drain SIGTERMs the server and asserts the graceful-exit contract the
// smoke suite enforces everywhere: exit code 130, the zero-leak
// self-check in the log, and no race-detector reports. Every violation
// comes back as one failure string.
func (p *ServerProc) Drain(timeout time.Duration) []string {
	var fails []string
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	code, err := p.waitExit(timeout)
	if err != nil {
		_ = p.cmd.Process.Kill()
		return append(fails, fmt.Sprintf("drain: %v", err))
	}
	if code != 130 {
		fails = append(fails, fmt.Sprintf("drain: exit %d, want 130; log tail:\n%s", code, tailFile(p.LogPath, 2000)))
	}
	log := tailFile(p.LogPath, 1<<20)
	if !strings.Contains(log, "no leaked goroutines") {
		fails = append(fails, "drain: the zero-leak self-check did not pass ("+p.LogPath+")")
	}
	if strings.Contains(log, "WARNING: DATA RACE") {
		fails = append(fails, "drain: the race detector fired ("+p.LogPath+")")
	}
	return fails
}

// LogContains reports whether the server's stderr log holds a marker.
func (p *ServerProc) LogContains(marker string) bool {
	return strings.Contains(tailFile(p.LogPath, 1<<20), marker)
}

// tailFile reads up to n trailing bytes of a file, best-effort.
func tailFile(path string, n int64) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if int64(len(data)) > n {
		data = data[int64(len(data))-n:]
	}
	return string(data)
}
