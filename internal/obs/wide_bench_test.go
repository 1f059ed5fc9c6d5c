package obs

import (
	"io"
	"testing"
	"time"
)

func BenchmarkEventLogLog(b *testing.B) {
	l := NewEventLog(io.Discard, 1)
	ev := &WideEvent{
		Time: time.Now(), RequestID: "abcdef0123456789", Route: "/v1/match",
		Method: "POST", Status: 200, Outcome: OutcomeOK, DurationMS: 12.5,
		QueueWaitMS: 0.03, Admission: "admitted", Breaker: "closed",
		Records: 1, Candidates: 3, Matches: 1, BytesIn: 120, BytesOut: 340,
		Stages: map[string]float64{"serve.match": 11.1, "serve.block": 3.2, "serve.predict": 6.4, "serve.sure_rules": 0.5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Log(ev, nil)
	}
}
