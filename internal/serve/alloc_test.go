package serve

import (
	"encoding/json"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
)

// allocsPerRequest is testing.AllocsPerRun over one POST through the
// server's handler, the httptest request and recorder included. A
// collection mid-count would empty the pools the pipeline draws from.
func allocsPerRequest(t *testing.T, path, body string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	serve := func() {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rw.Code != 200 {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
	serve() // the first request resolves what a bound set keeps
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(100, serve)
}

// TestMatchSingleAllocCeiling holds a one-record request to what its
// answer needs: the record decoded straight into a row, the request's
// spans in one allocation, and every stage on the caller. The request
// is the fixture's learned-path record, which runs every stage: 106
// allocations (the httptest request and recorder among them); 153 when
// the record went through a map and every span was its own allocation.
func TestMatchSingleAllocCeiling(t *testing.T) {
	const ceiling = 111
	if got := allocsPerRequest(t, "/v1/match", l1Request); got > ceiling {
		t.Fatalf("a single-record request allocates %.0f times, want at most %d", got, ceiling)
	}
}

// TestMatchBatchAllocCeiling is the same ceiling per record of a
// 32-record batch of the fixture's mix: 7.6 a record; 24.1 when every
// record went through a map.
func TestMatchBatchAllocCeiling(t *testing.T) {
	const records, ceiling = 32, 8.0
	body, err := json.Marshal(map[string]any{"records": benchRecords(records)})
	if err != nil {
		t.Fatal(err)
	}
	if got := allocsPerRequest(t, "/v1/match/batch", string(body)) / records; got > ceiling {
		t.Fatalf("a batch allocates %.1f times a record, want at most %.1f", got, ceiling)
	}
}
