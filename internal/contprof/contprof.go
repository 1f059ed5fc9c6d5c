// Package contprof is continuous profiling for the serving tier: it
// periodically captures CPU, heap, goroutine, mutex, and block profiles
// into a bounded on-disk retention ring, and arms *triggered* captures
// so that when an SLO starts burning or the tail buffer admits a
// latency outlier, the profile taken is of the fire — not of the quiet
// minute after an operator notices.
//
// (The name avoids colliding with internal/profile, the data profiler
// from the paper's Section 3; this package profiles the process, not
// the tables.)
//
// Each capture is a set of pprof files plus one JSON metadata sidecar
// (timestamp, build info, trigger, request id, allocation deltas). The
// sidecar is written last, atomically, after every profile file it
// names: a capture without a parseable sidecar is a torn write and is
// swept on reload, so a SIGKILL mid-capture can never leave a capture
// that lists profiles which do not exist. The ring holds at most
// MaxCaptures captures; the oldest is pruned, files and all, when a new
// one lands.
//
// Captures come from four places:
//
//   - the interval ticker (trigger "interval"),
//   - Trigger(), the deduplicated async entry point the serving tier
//     calls on tail-outlier admissions and burn-rate breaches (and the
//     /debug/contprof/trigger endpoint exposes over HTTP),
//   - the armed breach probe (SetBreachProbe), polled between interval
//     captures so a fast SLO burn is profiled within seconds,
//   - the final drain-time capture emserve takes on SIGTERM.
//
// Do tags work with runtime/pprof labels (route/stage/job) so CPU
// captures slice by endpoint in `go tool pprof -tags`.
package contprof

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"emgo/internal/ckpt"
)

// Defaults used when Config fields are zero.
const (
	DefaultInterval        = 60 * time.Second
	DefaultMaxCaptures     = 32
	DefaultCPUDuration     = time.Second
	DefaultTriggerCooldown = 30 * time.Second
	DefaultBreachPoll      = 10 * time.Second
	// The mutex/block sampling defaults are deliberately sparse: this
	// profiler is carried by every serving process all the time, and
	// aggressive rates (fraction 16, 1ms) measured ~40% overhead on the
	// batch endpoint's fan-out path. 1-in-500 contention events and a
	// 100ms block threshold keep the steady-state cost inside the <5%
	// budget (see BenchmarkMatchBatch32ObservedProfiled) while sustained
	// contention — the thing a triggered capture is fetched to explain —
	// still accumulates samples within one capture interval.
	DefaultMutexFraction = 500
	DefaultBlockRate     = int(100 * time.Millisecond)
)

// Built-in trigger reasons. Trigger accepts any sanitized reason; these
// are the ones the serving tier uses.
const (
	TriggerInterval    = "interval"
	TriggerDrain       = "drain"
	TriggerSLOBreach   = "slo_breach"
	TriggerTailOutlier = "tail_outlier"
	TriggerManual      = "manual"
)

// profileKinds are the profiles every capture attempts, in the order
// they are written. CPU is handled separately (it needs a sampling
// window); the rest are instantaneous pprof.Lookup snapshots.
var profileKinds = []string{"heap", "goroutine", "mutex", "block"}

// KindCPU names the CPU profile in Meta.Profiles and fetch requests.
const KindCPU = "cpu"

// Config sizes a Profiler.
type Config struct {
	// Dir is the retention-ring directory (created if missing).
	Dir string
	// Interval between periodic captures; <0 disables the periodic
	// ticker (triggered captures still work), 0 selects the default.
	Interval time.Duration
	// MaxCaptures bounds the ring; the oldest capture is pruned when a
	// new one would exceed it.
	MaxCaptures int
	// CPUDuration is the CPU-profile sampling window per capture,
	// clamped to half the interval so captures never overlap.
	CPUDuration time.Duration
	// triggerCooldown is the per-reason dedup window for Trigger: a
	// breach storm produces one capture, not one per failing request
	// (DefaultTriggerCooldown; only tests change it).
	triggerCooldown time.Duration
	// breachPoll is how often the armed breach probe is evaluated
	// between interval captures, clamped to the interval
	// (DefaultBreachPoll; only tests shorten it).
	breachPoll time.Duration
	// mutexFraction and blockRate arm runtime mutex/block sampling for
	// the profiler's lifetime (restored to off on Stop): the defaults, or
	// with <0, which only tests set, the runtime setting is left alone.
	mutexFraction int
	blockRate     int
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = DefaultMaxCaptures
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = DefaultCPUDuration
	}
	if c.Interval > 0 && c.CPUDuration > c.Interval/2 {
		c.CPUDuration = c.Interval / 2
	}
	if c.triggerCooldown <= 0 {
		c.triggerCooldown = DefaultTriggerCooldown
	}
	if c.breachPoll <= 0 {
		c.breachPoll = DefaultBreachPoll
	}
	if c.Interval > 0 && c.breachPoll > c.Interval {
		c.breachPoll = c.Interval
	}
	if c.mutexFraction == 0 {
		c.mutexFraction = DefaultMutexFraction
	}
	if c.blockRate == 0 {
		c.blockRate = DefaultBlockRate
	}
	return c
}

// Meta is one capture's JSON sidecar: everything an operator needs to
// decide whether the capture is the one worth pulling, without fetching
// a single profile byte.
type Meta struct {
	ID        string    `json:"id"`
	Time      time.Time `json:"time"`
	Trigger   string    `json:"trigger"`
	Detail    string    `json:"detail,omitempty"`
	RequestID string    `json:"request_id,omitempty"`

	GoVersion  string `json:"go_version"`
	Build      string `json:"build,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Goroutines int `json:"goroutines"`
	// HeapAllocBytes is live heap at capture time; AllocDeltaBytes and
	// GCCycleDelta are since the previous capture, so consecutive ring
	// entries read as an allocation-rate series (and `go tool pprof
	// -diff_base` between their heap profiles shows where the delta
	// went).
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	AllocDeltaBytes uint64 `json:"alloc_delta_bytes"`
	GCCycles        uint32 `json:"gc_cycles"`
	GCCycleDelta    uint32 `json:"gc_cycle_delta"`

	// Profiles maps kind -> filename (relative to the ring dir).
	// Errors records kinds that could not be captured (e.g. the CPU
	// profiler was already claimed by /debug/pprof/profile).
	Profiles map[string]string `json:"profiles"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// Profiler owns the retention ring. The nil *Profiler is valid: every
// method no-ops (List returns nil, Trigger returns false), matching the
// obs nil-handle posture so callers wire it unconditionally.
type Profiler struct {
	cfg Config

	// captureMu serializes captures (the CPU window makes them long).
	captureMu sync.Mutex

	mu             sync.Mutex
	captures       []*Meta // oldest first
	seq            int
	lastByReason   map[string]time.Time
	breachProbe    func() (bool, string)
	prevTotalAlloc uint64
	prevGCCycles   uint32

	prevMutexFraction int
	prevBlockRate     int

	stop    chan struct{}
	stopped chan struct{}
	started bool
	wg      sync.WaitGroup
}

// Open creates (or reopens) the retention ring under cfg.Dir: existing
// captures are reloaded from their sidecars, torn captures (profile
// files without a parseable sidecar, or sidecars naming missing files)
// are swept, and the ring is pruned to MaxCaptures. Open does not start
// the periodic ticker; call Start.
func Open(cfg Config) (*Profiler, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("contprof: empty dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("contprof: %w", err)
	}
	p := &Profiler{
		cfg:          cfg,
		lastByReason: map[string]time.Time{},
		stop:         make(chan struct{}),
		stopped:      make(chan struct{}),
	}
	if err := p.reload(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.prevTotalAlloc, p.prevGCCycles = ms.TotalAlloc, ms.NumGC
	return p, nil
}

// reload scans the ring dir, keeps captures with valid sidecars, and
// deletes everything else (torn writes from a crash mid-capture).
func (p *Profiler) reload() error {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return fmt.Errorf("contprof: %w", err)
	}
	valid := map[string]*Meta{} // capture id -> meta
	claimed := map[string]bool{}
	var metas []*Meta
	maxSeq := -1
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		// Advance the sequence past every capture-shaped name on disk —
		// torn ones included — so a new capture never reuses the id of
		// a file the sweep is about to delete.
		if id, _, ok := strings.Cut(name, "."); ok {
			if n := seqOf(id); n > maxSeq {
				maxSeq = n
			}
		}
		if !strings.HasSuffix(name, ".meta.json") {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(p.cfg.Dir, name))
		if rerr != nil {
			continue
		}
		var m Meta
		if json.Unmarshal(data, &m) != nil || m.ID == "" ||
			name != m.ID+".meta.json" {
			continue // corrupt sidecar: swept below with its files
		}
		torn := false
		for _, f := range m.Profiles {
			if _, serr := os.Stat(filepath.Join(p.cfg.Dir, f)); serr != nil {
				torn = true
				break
			}
		}
		if torn {
			continue
		}
		valid[m.ID] = &m
		claimed[name] = true
		for _, f := range m.Profiles {
			claimed[f] = true
		}
		metas = append(metas, &m)
	}
	// Sweep everything a valid sidecar does not claim: torn captures,
	// corrupt sidecars, stray temp files.
	for _, e := range entries {
		if e.IsDir() || claimed[e.Name()] {
			continue
		}
		os.Remove(filepath.Join(p.cfg.Dir, e.Name())) //nolint:errcheck // best-effort sweep
	}
	sort.Slice(metas, func(i, j int) bool {
		if !metas[i].Time.Equal(metas[j].Time) {
			return metas[i].Time.Before(metas[j].Time)
		}
		return metas[i].ID < metas[j].ID
	})
	p.mu.Lock()
	p.captures = metas
	p.seq = maxSeq + 1
	p.mu.Unlock()
	p.pruneToCap()
	return nil
}

// seqOf parses the numeric sequence out of a "cap-000042" id (-1 when
// the id is foreign).
func seqOf(id string) int {
	s, ok := strings.CutPrefix(id, "cap-")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// SetBreachProbe arms the burn-rate probe polled between interval
// captures: when it reports a breach, a TriggerSLOBreach capture fires
// (deduplicated under the trigger cooldown). Safe on nil.
func (p *Profiler) SetBreachProbe(probe func() (bool, string)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.breachProbe = probe
	p.mu.Unlock()
}

// Start launches the periodic capture loop (no-op when the interval is
// negative or the profiler nil). Captures run until Stop.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	if p.cfg.mutexFraction > 0 {
		p.prevMutexFraction = runtime.SetMutexProfileFraction(p.cfg.mutexFraction)
	}
	if p.cfg.blockRate > 0 {
		runtime.SetBlockProfileRate(p.cfg.blockRate)
	}
	if p.cfg.Interval < 0 {
		close(p.stopped)
		return
	}
	go p.loop()
}

// loop is the periodic engine: a breach-poll ticker with an interval
// countdown, so a burning SLO is profiled within breachPoll
// instead of waiting out the rest of the interval.
func (p *Profiler) loop() {
	defer close(p.stopped)
	tick := time.NewTicker(p.cfg.breachPoll)
	defer tick.Stop()
	nextInterval := time.Now().Add(p.cfg.Interval)
	for {
		select {
		case <-p.stop:
			return
		case now := <-tick.C:
			p.mu.Lock()
			probe := p.breachProbe
			p.mu.Unlock()
			if probe != nil {
				if breached, detail := probe(); breached {
					p.Trigger(TriggerSLOBreach, detail, "")
				}
			}
			if now.After(nextInterval) {
				nextInterval = now.Add(p.cfg.Interval)
				p.CaptureNow(TriggerInterval, "", "") //nolint:errcheck // a failed capture leaves no ring entry; the next interval tries again
			}
		}
	}
}

// Stop halts the periodic loop, waits for in-flight triggered captures,
// and restores the runtime mutex/block sampling rates. Safe on nil and
// idempotent.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.started {
		p.started = true // mark so a later Start stays a no-op
		close(p.stopped)
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	select {
	case <-p.stop:
		p.mu.Unlock()
		<-p.stopped
		p.wg.Wait()
		return
	default:
	}
	close(p.stop)
	p.mu.Unlock()
	<-p.stopped
	p.wg.Wait()
	if p.cfg.mutexFraction > 0 {
		runtime.SetMutexProfileFraction(p.prevMutexFraction)
	}
	if p.cfg.blockRate > 0 {
		runtime.SetBlockProfileRate(0)
	}
}

// reasonRe bounds what a trigger reason may look like (the HTTP
// endpoint feeds this from the network).
var reasonRe = regexp.MustCompile(`^[a-zA-Z0-9._@=-]{1,64}$`)

// Trigger requests an asynchronous capture for reason (e.g. a tail
// outlier admission or an SLO breach). Storms deduplicate two ways:
// per-reason cooldown (one slo_breach capture per cooldown window, no
// matter how many requests burn) and in-flight coalescing (a trigger
// while any capture is running is dropped). Returns whether a capture
// was actually scheduled. Safe on nil and for concurrent use.
func (p *Profiler) Trigger(reason, detail, requestID string) bool {
	return p.trigger(reason, func() string { return detail }, requestID)
}

// TriggerFunc is Trigger with the detail built lazily, only once the
// capture has cleared the cooldown and coalescing gates. Hot paths that
// fire on every candidate event (the tail-outlier hook fires per heap
// displacement) use this so the common deduplicated case formats
// nothing.
func (p *Profiler) TriggerFunc(reason string, detail func() string, requestID string) bool {
	return p.trigger(reason, detail, requestID)
}

func (p *Profiler) trigger(reason string, detail func() string, requestID string) bool {
	if p == nil || !reasonRe.MatchString(reason) {
		return false
	}
	now := time.Now()
	p.mu.Lock()
	if last, ok := p.lastByReason[reason]; ok && now.Sub(last) < p.cfg.triggerCooldown {
		p.mu.Unlock()
		return false
	}
	p.lastByReason[reason] = now
	p.mu.Unlock()

	if !p.captureMu.TryLock() {
		// A capture is already running; this trigger's fire is being
		// profiled right now. Do not queue a second one behind it.
		return false
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.captureMu.Unlock()
		p.captureLocked(reason, detail(), requestID) //nolint:errcheck // as for an interval capture
	}()
	return true
}

// CaptureNow captures synchronously (the interval loop and the
// drain-time final capture use it). Safe on nil (returns an error).
func (p *Profiler) CaptureNow(trigger, detail, requestID string) (*Meta, error) {
	if p == nil {
		return nil, fmt.Errorf("contprof: nil profiler")
	}
	p.captureMu.Lock()
	defer p.captureMu.Unlock()
	return p.captureLocked(trigger, detail, requestID)
}

// captureLocked runs one full capture under captureMu: every profile
// file first (each written atomically), the sidecar last, then the ring
// prune. A crash at any point leaves either a complete capture or files
// the next Open sweeps.
func (p *Profiler) captureLocked(trigger, detail, requestID string) (*Meta, error) {
	p.mu.Lock()
	id := fmt.Sprintf("cap-%06d", p.seq)
	p.seq++
	p.mu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &Meta{
		ID:         id,
		Time:       time.Now().UTC(),
		Trigger:    trigger,
		Detail:     detail,
		RequestID:  requestID,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Goroutines: runtime.NumGoroutine(),

		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		GCCycles:        ms.NumGC,
		Profiles:        map[string]string{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Build = bi.Main.Path
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Build += "@" + s.Value
				break
			}
		}
	}
	p.mu.Lock()
	m.AllocDeltaBytes = ms.TotalAlloc - p.prevTotalAlloc
	m.GCCycleDelta = ms.NumGC - p.prevGCCycles
	p.prevTotalAlloc, p.prevGCCycles = ms.TotalAlloc, ms.NumGC
	p.mu.Unlock()

	// CPU first: it is the only profile with a sampling window, and the
	// snapshot profiles taken after it describe the window's end state.
	if err := p.writeCPU(id); err != nil {
		m.errored(KindCPU, err)
	} else {
		m.Profiles[KindCPU] = id + "." + KindCPU + ".pprof"
	}
	for _, kind := range profileKinds {
		if err := p.writeLookup(id, kind); err != nil {
			m.errored(kind, err)
		} else {
			m.Profiles[kind] = id + "." + kind + ".pprof"
		}
	}

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("contprof: sidecar: %w", err)
	}
	if err := ckpt.AtomicWriteFile(filepath.Join(p.cfg.Dir, id+".meta.json"), data, 0o644); err != nil {
		return nil, fmt.Errorf("contprof: sidecar: %w", err)
	}

	p.mu.Lock()
	p.captures = append(p.captures, m)
	p.mu.Unlock()
	p.pruneToCap()
	return m, nil
}

func (m *Meta) errored(kind string, err error) {
	if m.Errors == nil {
		m.Errors = map[string]string{}
	}
	m.Errors[kind] = err.Error()
}

// writeCPU samples the CPU profile for the configured window into the
// capture's cpu file. StartCPUProfile fails when another CPU profile is
// in flight (e.g. an operator's /debug/pprof/profile); that is recorded
// in the sidecar's Errors, not fatal to the capture.
func (p *Profiler) writeCPU(id string) error {
	path := filepath.Join(p.cfg.Dir, id+"."+KindCPU+".pprof")
	return ckpt.AtomicWriteTo(path, 0o644, func(w io.Writer) error {
		if err := pprof.StartCPUProfile(w); err != nil {
			return err
		}
		timer := time.NewTimer(p.cfg.CPUDuration)
		select {
		case <-timer.C:
		case <-p.stop:
			timer.Stop() // draining: cut the window short, keep the sample
		}
		pprof.StopCPUProfile()
		return nil
	})
}

// writeLookup writes one instantaneous pprof.Lookup profile atomically.
func (p *Profiler) writeLookup(id, kind string) error {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return fmt.Errorf("unknown profile %q", kind)
	}
	path := filepath.Join(p.cfg.Dir, id+"."+kind+".pprof")
	return ckpt.AtomicWriteTo(path, 0o644, func(w io.Writer) error {
		return prof.WriteTo(w, 0)
	})
}

// pruneToCap removes the oldest captures past MaxCaptures, files first
// so a crash mid-prune leaves torn captures the next Open sweeps.
func (p *Profiler) pruneToCap() {
	for {
		p.mu.Lock()
		if len(p.captures) <= p.cfg.MaxCaptures {
			p.mu.Unlock()
			return
		}
		victim := p.captures[0]
		p.captures = p.captures[1:]
		p.mu.Unlock()
		for _, f := range victim.Profiles {
			os.Remove(filepath.Join(p.cfg.Dir, f)) //nolint:errcheck // best-effort prune
		}
		os.Remove(filepath.Join(p.cfg.Dir, victim.ID+".meta.json")) //nolint:errcheck
	}
}

// List returns the ring's capture metadata, oldest first. Safe on nil.
func (p *Profiler) List() []*Meta {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Meta(nil), p.captures...)
}

// Dir returns the ring directory ("" on nil).
func (p *Profiler) Dir() string {
	if p == nil {
		return ""
	}
	return p.cfg.Dir
}

// Lookup returns one capture's metadata by id (nil when absent).
func (p *Profiler) Lookup(id string) *Meta {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.captures {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// Do runs f with the given pprof label pairs attached to the goroutine,
// so CPU captures slice by route/stage/job in `go tool pprof -tags`.
// With no pairs (or an odd count) f runs unlabeled. Do builds the label
// map on every call; for hot paths with a fixed label set, precompute a
// Labels value instead.
func Do(ctx context.Context, f func(context.Context), kv ...string) {
	if len(kv) == 0 || len(kv)%2 != 0 {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), f)
}

// Labels is a precomputed, reusable pprof label set. pprof.Do allocates
// a fresh label map per call, which measured as the profiler's dominant
// steady-state cost at serving request rates; building the map once per
// route and re-arming it per request keeps labeling inside the <5%
// overhead budget (see BenchmarkMatchSingleObservedProfiled).
type Labels struct {
	ctx context.Context
}

// NewLabels precomputes a label set from key-value pairs. With no pairs
// (or an odd count) the set is empty and Do runs f unlabeled.
func NewLabels(kv ...string) Labels {
	if len(kv) == 0 || len(kv)%2 != 0 {
		return Labels{}
	}
	return Labels{ctx: pprof.WithLabels(context.Background(), pprof.Labels(kv...))}
}

// unlabeled resets goroutine labels after a Labels.Do; package-level so
// the reset allocates nothing.
var unlabeled = context.Background()

// Do runs f with the precomputed set applied to the current goroutine
// — and restored on return, panics included — forwarding ctx untouched.
// Unlike pprof.Do the labels are not woven into ctx, so goroutines f
// spawns inherit nothing; workers that matter label themselves (the job
// tier does).
func (l Labels) Do(ctx context.Context, f func(context.Context)) {
	if l.ctx == nil {
		f(ctx)
		return
	}
	pprof.SetGoroutineLabels(l.ctx)
	defer pprof.SetGoroutineLabels(unlabeled)
	f(ctx)
}
