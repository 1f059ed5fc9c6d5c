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
// supervision (emload's chaos mode, the smoke suite): the binary, the
// base argument list (spec, tables, matcher — everything EXCEPT the
// listen/addr-file/job-dir plumbing the supervisor owns), and a scratch
// directory for logs and address files.
type ServerConfig struct {
	Bin     string
	Args    []string
	WorkDir string
}

// ServerProc is one supervised emserve process. The supervisor owns the
// address file and stderr log so restarts over the same job dir are a
// one-liner and the drain contract can be asserted from the log.
type ServerProc struct {
	Addr    string
	LogPath string
	JobDir  string

	cmd  *exec.Cmd
	done chan error
}

// StartServer boots one emserve — with the job tier rooted at jobDir, or
// without one when jobDir is empty — plus any extra flags (fault plans,
// breaker tuning) and environment (EMCKPT_KILL), and waits for its
// address file.
func StartServer(ctx context.Context, cfg ServerConfig, jobDir, logName string, extraArgs, extraEnv []string) (*ServerProc, error) {
	logPath := filepath.Join(cfg.WorkDir, logName)
	addrFile := filepath.Join(cfg.WorkDir, logName+".addr")
	_ = os.Remove(addrFile)
	logF, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}

	args := append([]string{}, cfg.Args...)
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	if jobDir != "" {
		args = append(args, "-job-dir", jobDir)
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(cfg.Bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = logF
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, fmt.Errorf("load: start %s: %w", cfg.Bin, err)
	}
	p := &ServerProc{LogPath: logPath, JobDir: jobDir, cmd: cmd, done: make(chan error, 1)}
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

// WaitExit blocks until the process exits (e.g. a self-SIGKILL at an
// armed chaos kill-point) and returns its exit code; -1 means killed by
// signal, which is exactly what EMCKPT_KILL produces.
func (p *ServerProc) WaitExit(timeout time.Duration) (int, error) {
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

// Kill force-terminates the process (cleanup path, not a chaos event).
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
	code, err := p.WaitExit(timeout)
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

// ChaosConfig drives the chaos-soak: a clean reference pass, then a
// faulted server SIGKILLed mid-load at a shard-commit boundary, then a
// restart that must resume the job byte-identically while the breaker
// re-closes and load keeps flowing.
type ChaosConfig struct {
	Server ServerConfig
	Client ClientConfig
	Pool   *RecordPool

	// ShardSize is the canonical async job's shard size (default 4).
	ShardSize int
	// JobTimeout bounds each await (default 120s).
	JobTimeout time.Duration

	// Rate/LoadDuration/Seed/Blend shape each load phase (defaults 25
	// qps, 8s, seed 1, single-heavy with malformed/status probes and NO
	// job kind — job submission is explicit so the kill-point timing is
	// controlled).
	Rate         float64
	LoadDuration time.Duration
	Seed         int64
	Blend        Blend

	ReportEvery time.Duration
	Report      io.Writer
}

// ChaosResult is the chaos-soak verdict, embedded in the summary JSON.
type ChaosResult struct {
	RefJobID              string         `json:"ref_job_id"`
	ChaosJobID            string         `json:"chaos_job_id"`
	Killed                bool           `json:"killed"`
	KillExit              int            `json:"kill_exit"`
	BreakerOpened         bool           `json:"breaker_opened"`
	BreakerReclosed       bool           `json:"breaker_reclosed"`
	ResumedShards         int            `json:"resumed_shards"`
	ByteIdentical         bool           `json:"byte_identical"`
	ResultBytes           int            `json:"result_bytes"`
	ShedMissingRetryAfter int64          `json:"shed_missing_retry_after"`
	DrainClean            bool           `json:"drain_clean"`
	Phases                []PhaseSummary `json:"phases"`
	Failures              []string       `json:"failures"`
	Pass                  bool           `json:"pass"`
}

// The choreography's fixed parts. They only work together, so none is
// a setting: the canonical job (six shards at the default size) must
// have the shard EMCKPT_KILL names — die exactly at its commit — and the
// -inject plan's three matcher faults must trip a two-failure breaker
// yet all be spent before the job is submitted. The cooldown lets the
// open -> re-close round trip fit a smoke budget; chaosMinResumed is the
// resumed-shard floor proving the restart did not recompute from scratch.
const (
	chaosJobRecords      = 24
	chaosKillSpec        = "after:shard_00001.json"
	chaosFaultSpec       = "ml.predict:first=3,err=chaos-fault"
	chaosBreakerFailures = "2"
	chaosBreakerCooldown = "300ms"
	chaosBreakerWait     = 30 * time.Second
	chaosMinResumed      = 1
)

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.ShardSize <= 0 {
		c.ShardSize = 4
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.Rate <= 0 {
		c.Rate = 25
	}
	if c.LoadDuration <= 0 {
		c.LoadDuration = 8 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Blend.total() == 0 {
		c.Blend = Blend{Single: 90, Batch: 4, Malformed: 2, Status: 4}
	}
	if c.Blend.Job > 0 {
		// A blend-submitted job would race the canonical one for the
		// kill-point; fold its weight into singles.
		c.Blend.Single += c.Blend.Job
		c.Blend.Job = 0
	}
	if c.Report == nil {
		c.Report = io.Discard
	}
	return c
}

// RunChaos executes the full chaos-soak choreography:
//
//  1. reference: clean server, canonical job, fetch bytes, drain clean;
//  2. faulted server: matcher faults trip the breaker, steady singles
//     drive it open -> half-open -> closed (all faults consumed);
//  3. open-loop load starts; the canonical job is submitted mid-load;
//     the armed kill-point SIGKILLs the server at a shard boundary;
//  4. restart over the same job dir under fresh load: the job must
//     resume (not restart), complete, and fetch byte-identical to the
//     reference; sheds must carry Retry-After; the breaker must be
//     closed; the final drain must be leak- and race-clean.
//
// Every violated expectation lands in Failures; Pass is their absence.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := &ChaosResult{DrainClean: true}
	failf := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		fmt.Fprintf(cfg.Report, "emload: chaos FAIL: "+format+"\n", args...)
	}
	say := func(format string, args ...any) {
		fmt.Fprintf(cfg.Report, "emload: chaos: "+format+"\n", args...)
	}
	records := cfg.Pool.JobRecords(chaosJobRecords)

	// Phase 1: reference bytes from an unmolested server.
	say("reference server starting")
	ref, err := StartServer(ctx, cfg.Server, filepath.Join(cfg.Server.WorkDir, "jobs_ref"), "chaos_ref.err",
		[]string{"-job-shard-size", fmt.Sprint(cfg.ShardSize), "-job-workers", "1"}, nil)
	if err != nil {
		return res, err
	}
	refClient := NewClient(clientFor(cfg.Client, ref), cfg.Pool)
	var refBytes []byte
	refSt, err := refClient.SubmitJob(ctx, records, cfg.ShardSize)
	if err == nil {
		_, refBytes, err = refClient.FinishJob(ctx, refSt.ID, cfg.JobTimeout)
	}
	refClient.CloseIdle()
	if err != nil {
		ref.Kill()
		return res, fmt.Errorf("load: reference job: %w", err)
	}
	refID := refSt.ID
	res.RefJobID = refID
	res.ResultBytes = len(refBytes)
	say("reference job %s -> %d result bytes", refID, len(refBytes))
	if fails := ref.Drain(30 * time.Second); len(fails) > 0 {
		res.DrainClean = false
		for _, f := range fails {
			failf("reference %s", f)
		}
	}

	// Phase 2: the faulted, kill-armed server.
	say("faulted server starting (kill %s, inject %s)", chaosKillSpec, chaosFaultSpec)
	chaosDir := filepath.Join(cfg.Server.WorkDir, "jobs_chaos")
	victim, err := StartServer(ctx, cfg.Server, chaosDir, "chaos_kill.err",
		[]string{
			"-job-shard-size", fmt.Sprint(cfg.ShardSize), "-job-workers", "1",
			"-inject", chaosFaultSpec,
			"-breaker-failures", chaosBreakerFailures,
			"-breaker-cooldown", chaosBreakerCooldown,
		},
		[]string{"EMCKPT_KILL=" + chaosKillSpec})
	if err != nil {
		return res, err
	}
	exercise := NewClient(clientFor(cfg.Client, victim), cfg.Pool)
	opened, reclosed := exerciseBreaker(ctx, exercise, chaosBreakerWait)
	exercise.CloseIdle()
	res.BreakerOpened, res.BreakerReclosed = opened, reclosed
	if !opened {
		failf("breaker never opened under %s", chaosFaultSpec)
	}
	if !reclosed {
		failf("breaker never re-closed after the faults were consumed")
	}
	say("breaker exercised: opened=%v re-closed=%v", opened, reclosed)

	// Phase 3: open-loop load with the canonical job submitted mid-phase.
	schedule := func(seed int64) ScheduleConfig {
		return ScheduleConfig{Profile: ProfilePoisson, Rate: cfg.Rate, Duration: cfg.LoadDuration, Seed: seed, Blend: cfg.Blend}
	}
	loadA := make(chan *Result, 1)
	go func() {
		r, _ := Run(ctx, RunConfig{
			Schedule:    schedule(cfg.Seed),
			Client:      clientFor(cfg.Client, victim),
			Pool:        cfg.Pool,
			ReportEvery: cfg.ReportEvery,
			Report:      cfg.Report,
			JobWait:     -1, // the server is about to die; nothing to await
		})
		loadA <- r
	}()
	time.Sleep(cfg.LoadDuration / 4)
	submit := NewClient(clientFor(cfg.Client, victim), cfg.Pool)
	chaosSt, serr := submit.SubmitJob(ctx, records, cfg.ShardSize)
	submit.CloseIdle()
	if serr != nil {
		failf("canonical job submission under load: %v", serr)
	} else {
		res.ChaosJobID = chaosSt.ID
		if chaosSt.ID != refID {
			failf("chaos job id %s differs from reference %s — submission is not content-addressed", chaosSt.ID, refID)
		}
	}

	code, werr := victim.WaitExit(cfg.LoadDuration + cfg.JobTimeout)
	if werr != nil {
		failf("kill-point never fired: %v", werr)
		victim.Kill()
	} else {
		res.Killed, res.KillExit = true, code
		if code == 0 || code == 130 {
			res.Killed = false
			failf("server exited %d, expected a SIGKILL at %s", code, chaosKillSpec)
		}
		if !victim.LogContains("chaos kill at") {
			failf("kill marker missing from %s", victim.LogPath)
		}
	}
	say("server down (exit %d); mid-load kill delivered", code)
	if r := <-loadA; r != nil {
		res.ShedMissingRetryAfter += r.ShedNoRetryAfter
		res.Phases = append(res.Phases, NewPhaseSummary("chaos_load_kill", schedule(cfg.Seed), r))
	}

	// Phase 4: restart over the same job dir, resume under fresh load.
	say("restarting over %s", chaosDir)
	heir, err := StartServer(ctx, cfg.Server, chaosDir, "chaos_resume.err",
		[]string{"-job-shard-size", fmt.Sprint(cfg.ShardSize), "-job-workers", "1"}, nil)
	if err != nil {
		return res, err
	}
	if !heir.LogContains("unfinished job(s) resumed") {
		failf("restart did not report a recovered job (%s)", heir.LogPath)
	}

	loadB := make(chan *Result, 1)
	go func() {
		r, _ := Run(ctx, RunConfig{
			Schedule:    schedule(cfg.Seed + 1),
			Client:      clientFor(cfg.Client, heir),
			Pool:        cfg.Pool,
			ReportEvery: cfg.ReportEvery,
			Report:      cfg.Report,
		})
		loadB <- r
	}()

	await := NewClient(clientFor(cfg.Client, heir), cfg.Pool)
	if st, gotBytes, aerr := await.FinishJob(ctx, refID, cfg.JobTimeout); aerr != nil {
		failf("resumed job: %v", aerr)
	} else {
		res.ResumedShards = st.ResumedShards
		if st.ResumedShards < chaosMinResumed {
			failf("job resumed %d shard(s), want >= %d — the restart recomputed durable work", st.ResumedShards, chaosMinResumed)
		}
		if !bytes.Equal(gotBytes, refBytes) {
			failf("resumed results differ from the reference run (%d vs %d bytes)", len(gotBytes), len(refBytes))
		} else {
			res.ByteIdentical = true
			say("resumed results byte-identical to the reference (%d bytes, %d shard(s) resumed)", len(gotBytes), st.ResumedShards)
		}
	}

	if r := <-loadB; r != nil {
		res.ShedMissingRetryAfter += r.ShedNoRetryAfter
		res.Phases = append(res.Phases, NewPhaseSummary("chaos_load_resume", schedule(cfg.Seed+1), r))
		if n := r.Classes[ClassUnexpected]; n > 0 {
			failf("%d unexpected answer(s) in the resume-phase load", n)
		}
	}
	if res.ShedMissingRetryAfter > 0 {
		failf("%d shed answer(s) missing Retry-After", res.ShedMissingRetryAfter)
	}
	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	if stt, serr2 := await.Status(sctx); serr2 != nil {
		failf("final /v1/status: %v", serr2)
	} else if stt.Breaker != "closed" {
		failf("final breaker state %q, want closed", stt.Breaker)
	}
	scancel()
	await.CloseIdle()

	if fails := heir.Drain(30 * time.Second); len(fails) > 0 {
		res.DrainClean = false
		for _, f := range fails {
			failf("resume %s", f)
		}
	}
	res.Pass = len(res.Failures) == 0
	return res, nil
}

// clientFor points a client config at a supervised server.
func clientFor(cfg ClientConfig, p *ServerProc) ClientConfig {
	cfg.BaseURL = p.BaseURL()
	return cfg
}

// exerciseBreaker drives steady single-record requests at the faulted
// matcher until the breaker is seen open and then closed again. Each
// failed request consumes one armed fault; once they are spent, the
// half-open probe succeeds and the breaker re-closes — proof of the
// full trip/recover round trip, and a guarantee that no fault is left
// to contaminate later (deterministic) job shards.
func exerciseBreaker(ctx context.Context, c *Client, timeout time.Duration) (opened, reclosed bool) {
	deadline := time.Now().Add(timeout)
	i := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		c.Do(ctx, i, Arrival{Kind: KindSingle, Record: i})
		i++
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		st, err := c.Status(sctx)
		cancel()
		if err == nil {
			switch st.Breaker {
			case "open", "half_open":
				opened = true
			case "closed":
				if opened {
					return opened, true
				}
			}
		}
		select {
		case <-ctx.Done():
			return opened, reclosed
		case <-time.After(50 * time.Millisecond):
		}
	}
	return opened, reclosed
}
