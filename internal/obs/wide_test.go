package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestWideEventJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 1)
	ev := &WideEvent{
		Time:      time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.UTC),
		RequestID: "abcdef0123456789", Route: "/v1/match", Method: "POST",
		Status: 200, Outcome: OutcomeOK, DurationMS: 12.5, QueueWaitMS: 0.25,
		Admission: "admitted", Breaker: "closed",
		Records: 1, Candidates: 3, Matches: 2, BytesIn: 120, BytesOut: 340,
		JobID:  "j0011223344556677",
		Stages: map[string]float64{"serve.match": 11.25, "serve.block": 3},
	}
	l.Log(ev, nil)

	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted line is not JSON: %v\n%s", err, buf.String())
	}
	want := map[string]any{
		"msg": "request", "request_id": "abcdef0123456789", "route": "/v1/match",
		"method": "POST", "status": float64(200), "outcome": "ok",
		"duration_ms": 12.5, "queue_wait_ms": 0.25, "admission": "admitted",
		"breaker": "closed", "records": float64(1), "candidates": float64(3),
		"matches": float64(2), "bytes_in": float64(120), "bytes_out": float64(340),
		"job_id": "j0011223344556677",
	}
	for k, v := range want {
		if doc[k] != v {
			t.Errorf("field %q = %v, want %v", k, doc[k], v)
		}
	}
	ts, err := time.Parse(time.RFC3339Nano, doc["time"].(string))
	if err != nil || !ts.Equal(ev.Time) {
		t.Errorf("time field %v (err %v), want %v", doc["time"], err, ev.Time)
	}
	stages, _ := doc["stages"].(map[string]any)
	if stages["serve.match"] != 11.25 || stages["serve.block"] != float64(3) {
		t.Errorf("stages = %v", stages)
	}
}

func TestWideEventJSONEscapesHostileStrings(t *testing.T) {
	hostile := "a\"b\\c\nd\te\x00f\x7fg€héllo\xffend"
	var buf bytes.Buffer
	l := NewEventLog(&buf, 1)
	l.Log(&WideEvent{
		Time: time.Unix(0, 0), RequestID: "r", Route: "/x",
		Status: 500, Outcome: OutcomeError, Err: hostile,
		DegradedReason: hostile, Degraded: true,
		Stages: map[string]float64{hostile: 1},
	}, nil)
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("hostile strings broke the JSON line: %v\n%q", err, buf.String())
	}
	got, _ := doc["error"].(string)
	// Valid UTF-8 and escapes must survive exactly; the lone invalid
	// byte becomes the replacement rune (same policy as encoding/json).
	want := strings.ReplaceAll(hostile, "\xff", "�")
	if got != want {
		t.Fatalf("error round-trip:\n got %q\nwant %q", got, want)
	}
	if doc["degraded_reason"].(string) != want {
		t.Fatalf("degraded_reason round-trip failed: %q", doc["degraded_reason"])
	}
}

func TestWideEventNonFiniteDurations(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 1)
	bad := 1.0
	bad /= 0.0000000000000000000000001 // huge but finite is fine
	l.Log(&WideEvent{Time: time.Unix(0, 0), RequestID: "r", Route: "/x",
		Status: 200, Outcome: OutcomeOK, DurationMS: bad}, nil)
	inf := bad * bad * bad * bad // overflows to +Inf at runtime
	l.Log(&WideEvent{Time: time.Unix(0, 0), RequestID: "r2", Route: "/x",
		Status: 500, Outcome: OutcomeError, DurationMS: inf - inf, QueueWaitMS: inf}, nil)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("non-finite duration broke JSON: %v\n%s", err, line)
		}
	}
}

func TestEventLogSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 5)
	for i := 0; i < 20; i++ {
		l.Log(&WideEvent{Time: time.Unix(0, 0), RequestID: "ok", Route: "/x",
			Status: 200, Outcome: OutcomeOK}, nil)
	}
	for i := 0; i < 3; i++ {
		l.Log(&WideEvent{Time: time.Unix(0, 0), RequestID: "bad", Route: "/x",
			Status: 500, Outcome: OutcomeError}, nil)
	}
	var okN, errN int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatal(err)
		}
		switch doc["outcome"] {
		case "ok":
			okN++
		case "error":
			errN++
		}
	}
	if okN != 4 {
		t.Fatalf("sampled ok lines = %d, want 4 of 20 at sampleN=5", okN)
	}
	if errN != 3 {
		t.Fatalf("error lines = %d, want all 3 (errors bypass sampling)", errN)
	}
}

func TestEventLogNilSafety(t *testing.T) {
	var l *EventLog
	l.Log(&WideEvent{}, nil)                   // nil log
	NewEventLog(nil, 1).Log(&WideEvent{}, nil) // nil writer yields nil log
	NewEventLog(&bytes.Buffer{}, 1).Log(nil, nil)
}

func TestStageDurations(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "serve.http")
	ctx, block := StartSpan(ctx, "serve.block")
	_, inner := StartSpan(ctx, "serve.block") // duplicate name: first wins
	inner.End()
	block.End()
	_, predict := StartSpan(ctx, "serve.predict")
	predict.End()
	root.End()

	stages := root.StageDurations()
	if !reflect.DeepEqual(stages, root.Snapshot().StageDurations()) {
		t.Fatalf("live and exported trees flatten differently: %v vs %v", stages, root.Snapshot().StageDurations())
	}
	if _, has := stages["serve.block"]; !has {
		t.Fatalf("stages missing serve.block: %v", stages)
	}
	if _, has := stages["serve.predict"]; !has {
		t.Fatalf("stages missing serve.predict: %v", stages)
	}
	if _, has := stages["serve.http"]; has {
		t.Fatalf("root leaked into stages: %v", stages)
	}
	if (*Span)(nil).StageDurations() != nil || (*SpanData)(nil).StageDurations() != nil {
		t.Fatal("nil span tree should yield nil stages")
	}
}
