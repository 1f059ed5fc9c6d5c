package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ParsePlan parses the textual fault-plan syntax emserve -inject and the
// smoke scenarios hand it:
//
//	site
//	site:key=value,key=value,...
//
// The site must be one of Sites. A bare site name arms the zero plan
// (ModeError on every call). Keys:
//
//	mode     error | sleep (default error)
//	sleep    ModeSleep duration (e.g. 250ms)
//	oncall   OnCall — fire on exactly the Nth call
func ParsePlan(spec string) (site string, p Plan, err error) {
	site, params, hasParams := strings.Cut(spec, ":")
	site = strings.TrimSpace(site)
	if !slices.Contains(Sites, site) {
		return "", Plan{}, fmt.Errorf("fault: plan %q: unknown site %q (sites: %s)", spec, site, strings.Join(Sites, ", "))
	}
	if !hasParams {
		return site, Plan{}, nil
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", Plan{}, fmt.Errorf("fault: plan %q: %q is not key=value", spec, kv)
		}
		switch key {
		case "mode":
			switch val {
			case "error":
				p.Mode = ModeError
			case "sleep":
				p.Mode = ModeSleep
			default:
				return "", Plan{}, fmt.Errorf("fault: plan %q: unknown mode %q", spec, val)
			}
		case "sleep":
			d, derr := time.ParseDuration(val)
			if derr != nil {
				return "", Plan{}, fmt.Errorf("fault: plan %q: sleep: %w", spec, derr)
			}
			p.Sleep = d
		case "oncall":
			n, nerr := strconv.Atoi(val)
			if nerr != nil || n < 1 {
				return "", Plan{}, fmt.Errorf("fault: plan %q: oncall must be a positive integer, got %q", spec, val)
			}
			p.OnCall = n
		default:
			return "", Plan{}, fmt.Errorf("fault: plan %q: unknown key %q", spec, key)
		}
	}
	if p.Mode == ModeSleep && p.Sleep <= 0 {
		return "", Plan{}, fmt.Errorf("fault: plan %q: mode=sleep needs sleep=<duration>", spec)
	}
	return site, p, nil
}

// EnableSpec parses a plan spec and arms the site — the one-call form
// binaries use for operator-supplied injection flags.
func EnableSpec(spec string) (site string, err error) {
	site, p, err := ParsePlan(spec)
	if err != nil {
		return "", err
	}
	Enable(site, p)
	return site, nil
}
