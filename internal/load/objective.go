package load

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Objective kinds.
const (
	KindAvailability = "availability"
	KindLatency      = "latency"
)

// Objective is one declarative reliability target a Gate holds.
type Objective struct {
	// Name identifies the objective as a gate check ("availability",
	// "latency_250ms").
	Name string
	// Kind is KindAvailability or KindLatency.
	Kind string
	// Target is the success percentage the objective demands (99.9 means
	// at most 0.1% of requests may miss it).
	Target float64
	// ThresholdMS is the latency bound for KindLatency.
	ThresholdMS float64
}

// ParseObjectives parses the -slo flag syntax: a comma-separated list
// of "availability=TARGET" and "latency=DURATION@TARGET" clauses, e.g.
//
//	availability=99.9,latency=250ms@99
//
// means "99.9% of requests succeed, and 99% complete within 250ms".
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("slo: %q: want kind=value", clause)
		}
		switch kind {
		case KindAvailability:
			target, err := parseTarget(val)
			if err != nil {
				return nil, fmt.Errorf("slo: %q: %w", clause, err)
			}
			out = append(out, Objective{Name: KindAvailability, Kind: KindAvailability, Target: target})
		case KindLatency:
			durStr, targetStr, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("slo: %q: want latency=DURATION@TARGET", clause)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("slo: %q: bad duration %q", clause, durStr)
			}
			target, err := parseTarget(targetStr)
			if err != nil {
				return nil, fmt.Errorf("slo: %q: %w", clause, err)
			}
			out = append(out, Objective{
				Name:        "latency_" + strings.ReplaceAll(durStr, ".", "_"),
				Kind:        KindLatency,
				Target:      target,
				ThresholdMS: float64(d) / float64(time.Millisecond),
			})
		default:
			return nil, fmt.Errorf("slo: %q: unknown objective kind %q", clause, kind)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: no objectives in %q", s)
	}
	names := map[string]bool{}
	for _, o := range out {
		if names[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		names[o.Name] = true
	}
	return out, nil
}

// parseTarget parses a success percentage in (0, 100).
func parseTarget(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil || t <= 0 || t >= 100 {
		return 0, fmt.Errorf("bad target %q (want a percentage in (0,100))", s)
	}
	return t, nil
}
