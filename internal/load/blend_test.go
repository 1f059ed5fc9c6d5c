package load

import (
	"maps"
	"testing"
)

func TestParseBlendRoundTrip(t *testing.T) {
	b, err := ParseBlend("single=80,batch=10,malformed=5,status=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Blend{KindSingle: 80, KindBatch: 10, KindMalformed: 5, KindStatus: 3}
	if !maps.Equal(b, want) {
		t.Fatalf("parsed %+v, want %+v", b, want)
	}
	b2, err := ParseBlend(b.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", b.String(), err)
	}
	if !maps.Equal(b2, b) {
		t.Fatalf("String round trip lost weights: %q -> %+v", b.String(), b2)
	}
}

func TestParseBlendRejects(t *testing.T) {
	for _, s := range []string{
		"single",             // no weight
		"single=-1",          // negative
		"single=x",           // not a number
		"telepathy=10",       // unknown kind
		"single=8,job=2",     // no async job tier to submit to
		"single=0,batch=0",   // nothing positive
		"single=80,single=0", // a kind twice: the last weight would win
		"",                   // empty
	} {
		if _, err := ParseBlend(s); err == nil {
			t.Errorf("ParseBlend(%q) accepted, want error", s)
		}
	}
}

func TestBlendAssignProportions(t *testing.T) {
	b := Blend{KindSingle: 88, KindBatch: 5, KindMalformed: 2, KindOversized: 1, KindStatus: 4}
	kinds := b.assign(1000, 1)
	if len(kinds) != 1000 {
		t.Fatalf("assigned %d kinds, want 1000", len(kinds))
	}
	counts := map[Kind]int{}
	for _, k := range kinds {
		counts[k]++
	}
	// Largest-remainder apportionment is exact here (weights sum to 100).
	want := map[Kind]int{KindSingle: 880, KindBatch: 50, KindMalformed: 20, KindOversized: 10, KindStatus: 40}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("kind %s: %d of 1000, want exactly %d", k, counts[k], n)
		}
	}
}

func TestBlendAssignSmallRunsKeepRareKinds(t *testing.T) {
	// A 1%-weight kind must still appear in a 100-arrival run.
	b := Blend{KindSingle: 99, KindOversized: 1}
	kinds := b.assign(100, 1)
	seen := false
	for _, k := range kinds {
		if k == KindOversized {
			seen = true
		}
	}
	if !seen {
		t.Fatal("1% kind vanished from a 100-arrival schedule")
	}
}

func TestBlendAssignDeterministicAndInterleaved(t *testing.T) {
	b := DefaultBlend()
	a1 := b.assign(500, 42)
	a2 := b.assign(500, 42)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("assignment differs at %d with the same seed", i)
		}
	}
	// Interleaving: the first 100 slots of a shuffled 88% single blend
	// should not be 100% single.
	other := 0
	for _, k := range a1[:100] {
		if k != KindSingle {
			other++
		}
	}
	if other == 0 {
		t.Fatal("first 100 arrivals are all single — kinds arrived in runs, not interleaved")
	}
	a3 := b.assign(500, 43)
	same := true
	for i := range a1 {
		if a1[i] != a3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical interleavings")
	}
}

func TestZeroBlendIsAllSingles(t *testing.T) {
	kinds := Blend{}.assign(10, 1)
	for _, k := range kinds {
		if k != KindSingle {
			t.Fatalf("zero blend produced kind %s", k)
		}
	}
}
