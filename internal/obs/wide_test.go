package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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
		Admission: "admitted", Records: 1, Candidates: 3, Matches: 2,
		BytesIn: 120, BytesOut: 340,
	}
	l.Log(ev, stagedTree(map[string]float64{"serve.match": 11.25, "serve.block": 3}))

	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted line is not JSON: %v\n%s", err, buf.String())
	}
	want := map[string]any{
		"msg": "request", "request_id": "abcdef0123456789", "route": "/v1/match",
		"method": "POST", "status": float64(200), "outcome": "ok",
		"duration_ms": 12.5, "queue_wait_ms": 0.25, "admission": "admitted",
		"records": float64(1), "candidates": float64(3),
		"matches": float64(2), "bytes_in": float64(120), "bytes_out": float64(340),
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
	}, stagedTree(map[string]float64{hostile: 1}))
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
	event := func(id, outcome string, ms float64) *WideEvent {
		return &WideEvent{Time: time.Unix(0, 0), RequestID: id, Route: "/x",
			Status: 200, Outcome: outcome, DurationMS: ms}
	}
	repeat := func(n int, ev *WideEvent) []*WideEvent {
		evs := make([]*WideEvent, n)
		for i := range evs {
			evs[i] = ev
		}
		return evs
	}
	// interleaved is n plain ok events, each followed by a slow one: were
	// a slow event to move the sampling counter, other plain ones would log.
	interleaved := func(n int) []*WideEvent {
		var evs []*WideEvent
		for i := 0; i < n; i++ {
			evs = append(evs, event("ok", OutcomeOK, 1), event("slow", OutcomeOK, slowMS+1))
		}
		return evs
	}
	for _, tc := range []struct {
		name    string
		sampleN int
		events  []*WideEvent
		want    map[string]int // lines by request id
	}{
		{"errors bypass sampling", 5,
			append(repeat(20, event("ok", OutcomeOK, 1)), repeat(3, event("bad", OutcomeError, 1))...),
			map[string]int{"ok": 4, "bad": 3}},
		// The first ok event is the counter's sampled one; the second is
		// judged by its duration alone.
		{"ok at the threshold logs", 1000,
			[]*WideEvent{event("ok", OutcomeOK, 1), event("slow", OutcomeOK, slowMS)},
			map[string]int{"ok": 1, "slow": 1}},
		{"ok just under the threshold is sampled", 1000,
			[]*WideEvent{event("ok", OutcomeOK, 1), event("slow", OutcomeOK, slowMS-0.001)},
			map[string]int{"ok": 1}},
		{"slow lines leave the sample alone", 1000, interleaved(2001),
			map[string]int{"ok": 3, "slow": 2001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			l := NewEventLog(&buf, tc.sampleN)
			for _, ev := range tc.events {
				l.Log(ev, nil)
			}
			got := map[string]int{}
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var doc map[string]any
				if err := json.Unmarshal([]byte(line), &doc); err != nil {
					t.Fatal(err)
				}
				got[doc["request_id"].(string)]++
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("lines by request id = %v, want %v at sampleN=%d", got, tc.want, tc.sampleN)
			}
		})
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

// stagedTree is a finished request tree whose root's children took the
// given wall milliseconds: the source of a logged line's stages.
func stagedTree(stages map[string]float64) *Span {
	ctx, root := NewTrace(context.Background(), "serve.http")
	for name, ms := range stages {
		_, sp := StartSpan(ctx, name)
		sp.end = sp.start.Add(time.Duration(ms * float64(time.Millisecond)))
	}
	root.End()
	return root
}

// TestLoggedStagesAreStageDurations: a line's stages are written straight
// off the span tree, with no map between, and say what StageDurations
// says — the first of a repeated name in depth-first order wins — with
// the names in sorted order; the line costs no allocation once the log's
// buffers have grown.
func TestLoggedStagesAreStageDurations(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "serve.http")
	end := func(sp *Span, ms float64) { sp.end = sp.start.Add(time.Duration(ms * float64(time.Millisecond))) }
	mctx, match := StartSpan(ctx, "serve.match")
	bctx, block := StartSpan(mctx, "serve.block")
	_, inner := StartSpan(bctx, "serve.sure_rules") // deeper, but walked first
	end(inner, 0.5)
	end(block, 3)
	_, sure := StartSpan(mctx, "serve.sure_rules")
	end(sure, 7)
	_, again := StartSpan(ctx, "serve.block")
	end(again, 9)
	end(match, 11)
	root.End()

	var buf bytes.Buffer
	l := NewEventLog(&buf, 1)
	ev := &WideEvent{Time: time.Now(), RequestID: "r", Route: "/v1/match", Status: 200, Outcome: OutcomeOK}
	l.Log(ev, root)
	var doc struct {
		Stages map[string]float64 `json:"stages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, buf.String())
	}
	if want := root.StageDurations(); !reflect.DeepEqual(doc.Stages, want) {
		t.Fatalf("line's stages %v, StageDurations %v", doc.Stages, want)
	}
	if want := `"stages":{"serve.block":3,"serve.match":11,"serve.sure_rules":0.5}`; !strings.Contains(buf.String(), want) {
		t.Fatalf("line %s, want stages written in name order as %s", buf.String(), want)
	}

	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	l = NewEventLog(io.Discard, 1)
	if got := testing.AllocsPerRun(100, func() { l.Log(ev, root) }); got > 0 {
		t.Fatalf("a logged line allocates %.0f times, want none", got)
	}
}
