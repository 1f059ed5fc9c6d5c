package load

import "testing"

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("availability=99.9,latency=250ms@99")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Kind != KindAvailability || objs[0].Target != 99.9 {
		t.Fatalf("availability = %+v", objs[0])
	}
	if objs[1].Kind != KindLatency || objs[1].ThresholdMS != 250 || objs[1].Target != 99 {
		t.Fatalf("latency = %+v", objs[1])
	}
	if objs[1].Name != "latency_250ms" {
		t.Fatalf("latency name = %q", objs[1].Name)
	}
}

func TestParseObjectivesRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"", "availability", "availability=101", "availability=0",
		"latency=250ms", "latency=@99", "latency=-1s@99",
		"bogus=1", "availability=99,availability=98",
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) = nil error, want failure", bad)
		}
	}
}
