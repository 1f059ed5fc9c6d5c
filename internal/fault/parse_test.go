package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParsePlanBareSite(t *testing.T) {
	site, p, err := ParsePlan("serve.predict")
	if err != nil {
		t.Fatal(err)
	}
	if site != "serve.predict" {
		t.Fatalf("site = %q", site)
	}
	if p != (Plan{}) {
		t.Fatalf("bare site should parse to the zero plan, got %+v", p)
	}
}

func TestParsePlanFull(t *testing.T) {
	site, p, err := ParsePlan("serve.match:mode=sleep,sleep=150ms,oncall=3")
	if err != nil {
		t.Fatal(err)
	}
	if site != "serve.match" {
		t.Fatalf("site = %q", site)
	}
	if p != (Plan{Mode: ModeSleep, Sleep: 150 * time.Millisecond, OnCall: 3}) {
		t.Fatalf("plan = %+v", p)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"",                            // empty site
		":mode=error",                 // empty site with params
		"ml.predict",                  // a site no code passes
		"serve.match:mode=nope",       // unknown mode
		"serve.match:mode=panic",      // unknown mode
		"serve.match:frequency=often", // unknown key
		"serve.match:prob=0.5",        // unknown key
		"serve.match:oncall=zero",     // non-integer
		"serve.match:oncall=0",        // non-positive
		"serve.match:mode=sleep",      // sleep mode without duration
		"serve.match:sleep=fast",      // bad duration
		"serve.match:modeerror",       // not key=value
	} {
		if _, _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", spec)
		}
	}
}

func TestParsePlanRoundTripFires(t *testing.T) {
	defer Reset()
	site, err := EnableSpec("serve.match:mode=error,oncall=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(site); err != nil {
		t.Fatalf("call 1 fired: %v", err)
	}
	err = Inject(site)
	if err == nil {
		t.Fatal("call 2 did not fire")
	}
	if !strings.Contains(err.Error(), `"serve.match"`) {
		t.Fatalf("err = %v, want it to name the site", err)
	}
	if Inject(site) != nil {
		t.Fatal("call 3 fired")
	}
}
