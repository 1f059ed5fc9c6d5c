package load

import (
	"testing"
	"time"
)

func TestBuildScheduleDeterministic(t *testing.T) {
	for _, profile := range []string{ProfileUniform, ProfilePoisson} {
		cfg := ScheduleConfig{Profile: profile, Rate: 200, Duration: 2 * time.Second, Seed: 7,
			PickN: 100, Blend: DefaultBlend()}
		a, err := BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		b, err := BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", profile, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs: %+v vs %+v — schedule is not deterministic", profile, i, a[i], b[i])
			}
		}
	}
}

func TestBuildScheduleSeedChangesDraws(t *testing.T) {
	cfg := ScheduleConfig{Profile: ProfilePoisson, Rate: 200, Duration: 2 * time.Second, PickN: 100}
	a, _ := BuildSchedule(cfg)
	cfg.Seed = 99
	b, _ := BuildSchedule(cfg)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i].At != b[i].At {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical Poisson schedules")
	}
}

func TestUniformSchedule(t *testing.T) {
	arr, err := BuildSchedule(ScheduleConfig{Profile: ProfileUniform, Rate: 100, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 100 {
		t.Fatalf("100qps x 1s yields %d arrivals, want 100", len(arr))
	}
	gap := arr[1].At - arr[0].At
	for i := 1; i < len(arr); i++ {
		if d := arr[i].At - arr[i-1].At; d != gap {
			t.Fatalf("uniform gap drifted at %d: %v vs %v", i, d, gap)
		}
	}
	if arr[0].At != 0 {
		t.Fatalf("first arrival at %v, want 0", arr[0].At)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	arr, err := BuildSchedule(ScheduleConfig{Profile: ProfilePoisson, Rate: 500, Duration: 4 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 2000 expected arrivals; a 10% tolerance is ~4.5 sigma.
	if n := len(arr); n < 1800 || n > 2200 {
		t.Fatalf("poisson 500qps x 4s yields %d arrivals, want ~2000", n)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

func TestZipfPickSkew(t *testing.T) {
	arr, err := BuildSchedule(ScheduleConfig{
		Profile: ProfileUniform, Rate: 2000, Duration: time.Second,
		PickN: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range arr {
		if a.Record < 0 || a.Record >= 1000 {
			t.Fatalf("record index %d out of pool range", a.Record)
		}
		counts[a.Record]++
	}
	// Zipf concentrates mass on low indices: the hottest key must be
	// far above the uniform expectation (2 per key).
	if counts[0] < 100 {
		t.Fatalf("zipf head key drew %d of 2000 picks — not skewed", counts[0])
	}
}

func TestBuildScheduleRejects(t *testing.T) {
	cases := []ScheduleConfig{
		{Profile: ProfileUniform, Rate: 0, Duration: time.Second},
		{Profile: ProfileUniform, Rate: 10, Duration: 0},
		{Profile: "sawtooth", Rate: 10, Duration: time.Second},
		{Profile: ProfileUniform, Rate: 1e9, Duration: time.Hour},
	}
	for _, cfg := range cases {
		if _, err := BuildSchedule(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}
