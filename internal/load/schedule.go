// Package load is the open-loop traffic generator and soak harness for
// the serving tier: deterministic seeded arrival schedules, mixed
// request blends against a live emserve, a client that sends each
// arrival once and classifies its answer (a shed must carry Retry-After),
// live eps/latency reporting through internal/obs histograms, and the
// soak / capacity-search assertion modes behind cmd/emload; and the
// supervisor the smoke harness starts and drains emserve through
// (proc.go).
//
// Open-loop is the load-model decision everything else follows from.
// A closed-loop generator (k workers, each sending the next request
// when the previous answer returns) silently slows down exactly when
// the server does, so an overloaded server measures *better*: the
// coordinated-omission trap. Here send times are fixed by the schedule
// before the run starts — a response arriving late never delays the
// next arrival, and every request's latency is charged from its
// *scheduled* send time, so queueing delay inside the generator counts
// against the server the way a real user would experience it.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrival profiles.
const (
	ProfileUniform = "uniform"
	ProfilePoisson = "poisson"
)

// zipfS is the skew exponent record indices are drawn under: real
// traffic is skewed, and a skewed key distribution is what exercises
// caches and hot rows.
const zipfS = 1.2

// ScheduleConfig describes one deterministic arrival schedule. The same
// config always yields the same schedule: send times, request kinds,
// and record indices are all drawn from rngs seeded with Seed, so a
// soak run (or a failure it found) is replayable bit for bit. The json
// keys are the ones a phase record (Result) writes for its schedule.
type ScheduleConfig struct {
	// Profile is the inter-arrival shape: ProfileUniform (evenly spaced)
	// or ProfilePoisson (exponential gaps, the classic open-system model).
	Profile string `json:"profile"`
	// Rate is the mean arrival rate in requests/second (> 0).
	Rate float64 `json:"target_qps"`
	// Duration is how long the schedule runs (> 0); a phase record
	// writes it as duration_s.
	Duration time.Duration `json:"-"`
	// Seed drives every random draw (0 picks 1, so the zero config is
	// still deterministic).
	Seed int64 `json:"seed"`

	// PickN is the record-pool size the Zipf-distributed record indices
	// are drawn from (> 0 when the blend carries record-bearing requests).
	PickN int `json:"-"`

	// Blend weights the request kinds; the empty Blend is all single
	// matches.
	Blend Blend `json:"blend"`
}

// Arrival is one scheduled request: fire at At (offset from run start),
// with kind Kind, using record index Record (record-bearing kinds).
type Arrival struct {
	At     time.Duration
	Kind   Kind
	Record int
}

func (c ScheduleConfig) withDefaults() ScheduleConfig {
	if c.Profile == "" {
		c.Profile = ProfileUniform
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// BuildSchedule materializes the whole open-loop schedule up front.
// Precomputing (rather than drawing arrivals on the fly) is what makes
// the generator coordinated-omission-free by construction: nothing the
// server does during the run can move a send time that was fixed before
// the run began.
func BuildSchedule(cfg ScheduleConfig) ([]Arrival, error) {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("load: schedule rate must be > 0, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: schedule duration must be > 0, got %v", cfg.Duration)
	}
	if cfg.Rate*cfg.Duration.Seconds() > 50e6 {
		return nil, fmt.Errorf("load: schedule of %g arrivals is unreasonably large", cfg.Rate*cfg.Duration.Seconds())
	}

	var times []time.Duration
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Profile {
	case ProfileUniform:
		times = uniformTimes(cfg.Rate, cfg.Duration)
	case ProfilePoisson:
		times = poissonTimes(rng, cfg.Rate, cfg.Duration)
	default:
		return nil, fmt.Errorf("load: unknown arrival profile %q (want %s|%s)",
			cfg.Profile, ProfileUniform, ProfilePoisson)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("load: schedule %gqps x %v yields no arrivals", cfg.Rate, cfg.Duration)
	}

	kinds := cfg.Blend.assign(len(times), cfg.Seed)
	// Offset the seed so the pick stream is independent of the arrival
	// stream even though both derive from cfg.Seed.
	picks := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed+0x9e3779b9)), zipfS, 1, uint64(max(cfg.PickN, 1)-1))

	out := make([]Arrival, len(times))
	for i, at := range times {
		out[i] = Arrival{At: at, Kind: kinds[i], Record: int(picks.Uint64())}
	}
	return out, nil
}

// uniformTimes spaces arrivals evenly: i/rate.
func uniformTimes(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, 0, n)
	gap := float64(time.Second) / rate
	for i := 0; ; i++ {
		at := time.Duration(float64(i) * gap)
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// poissonTimes draws exponential inter-arrival gaps with mean 1/rate —
// the memoryless arrivals of an open system of many independent users.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	at := time.Duration(0)
	for {
		// ExpFloat64 has mean 1; scale to mean 1/rate seconds.
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		at += gap
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
