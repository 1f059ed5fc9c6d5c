package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"emgo/internal/block"
	"emgo/internal/tokenize"
	"emgo/internal/workflow"
)

// allocsPerRequest is testing.AllocsPerRun over one POST through the
// server's handler, the httptest request and recorder included. A
// collection mid-count would empty the standard library's pools the
// pipeline draws from, the JSON encoder's among them.
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
// answer needs: the record decoded straight into a row, every stage on
// the caller, one candidate list in pooled scratch, and the request's
// fixed cost — wide event, status writer, span slab, body buffer,
// deadline — in one pooled record. The request is the fixture's
// learned-path record, which runs every stage: 53 allocations (the
// httptest request and recorder among them); 66 when the request held its
// deadline through context.WithTimeout, read its body through io.ReadAll
// and took a span slab, an event and a request copy of its own, 103 when
// matchSet built a candidate set per stage and the learned stage a second
// deadline, 153 when the record went through a map and every span was its
// own allocation.
func TestMatchSingleAllocCeiling(t *testing.T) {
	const ceiling = 61
	if got := allocsPerRequest(t, "/v1/match", l1Request); got > ceiling {
		t.Fatalf("a single-record request allocates %.0f times, want at most %d", got, ceiling)
	}
}

// TestMatchBatchAllocCeiling is the same ceiling per record of a
// 32-record batch of the fixture's mix: 2.66 a record, the answers from
// one slab of responses and one of matches and the request's fixed cost
// in its pooled record; 3.19 before that record, 7.25 when each answer
// and each row's matches were their own allocations, 24.1 when every
// record went through a map.
func TestMatchBatchAllocCeiling(t *testing.T) {
	const records, ceiling = 32, 3.4
	body, err := json.Marshal(map[string]any{"records": benchRecords(records)})
	if err != nil {
		t.Fatal(err)
	}
	if got := allocsPerRequest(t, "/v1/match/batch", string(body)) / records; got > ceiling {
		t.Fatalf("a batch allocates %.1f times a record, want at most %.1f", got, ceiling)
	}
}

// TestDeployedLearnedStageAllocCeiling: a deployment's vectors are as wide
// as its matcher's read count, not its feature set, and its learned stage
// — workflow.PredictPairs — allocates no more for each further pair than
// 8 B a read feature plus a slack for the row header, the prediction and
// the left row's share of the prepared cells. The fixture's one-split tree
// reads 1 of 21 features, and a further pair costs ~74 B; it cost ~234 B
// when every vector had a slot for each feature.
func TestDeployedLearnedStageAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	const slack = 96 // bytes a pair
	ctx := context.Background()
	w, l, r := paperWorkflowAt(t, tokenize.Word{}, 0.15)
	tree, _ := titleStumps(t, w)
	d, err := deployed(t, w, tree, l, r).Deploy(ctx, tree, r)
	if err != nil {
		t.Fatal(err)
	}
	read := len(readNames(w, tree))
	if got := d.Features.Len(); got != read {
		t.Fatalf("the deployment's vectors have %d slots; its tree reads %d of %d features", got, read, w.Features.Len())
	}
	var pairs []block.Pair
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < 16; j++ {
			pairs = append(pairs, block.Pair{A: i, B: (i + 37*j) % r.Len()})
		}
	}
	// bytes is what one call over the first n pairs allocates, averaged.
	bytes := func(n int) float64 {
		predict := func() {
			if _, _, err := workflow.PredictPairs(ctx, d.Features, d.Imputer, d.Matcher, l, r, pairs[:n]); err != nil {
				t.Fatal(err)
			}
		}
		predict() // the first call resolves the plan a bound set keeps
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			predict()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	half := len(pairs) / 2
	perPair := (bytes(len(pairs)) - bytes(half)) / float64(len(pairs)-half)
	t.Logf("%d pairs over %d read features: %.1f B a further pair", len(pairs), read, perPair)
	if ceiling := float64(8*read + slack); perPair > ceiling {
		t.Fatalf("the learned stage allocates %.1f B a further pair over %d read features, want at most %.0f", perPair, read, ceiling)
	}
}

// TestMatchSingleLoopbackAllocCeiling is the single-record ceiling over a
// real connection: a keep-alive client posting to an httptest.NewServer,
// both sides of the loopback counted (runtime.MemStats.Mallocs): 118.0
// allocations, 120.0 while admission handed out a release closure and
// 136.5 before the request's pooled record. A deadline held
// through context.WithTimeout costs 7 allocations and a runtime timer
// over a connection against 3 in-process, so only this count sees one
// come back; the ceiling's slack is under that 7.
func TestMatchSingleLoopbackAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	const ceiling = 123
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	post := func() {
		resp, err := client.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(l1Request))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
	}
	for i := 0; i < 10; i++ {
		post() // open the connection and fill the pools
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / requests
	if got > ceiling {
		t.Fatalf("a single-record request over loopback allocates %.1f times, client included, want at most %d", got, ceiling)
	}
}

// TestWarmRequestSurvivesCollections: a request after two collections —
// enough to empty a sync.Pool, victim cache and all — allocates no more
// than a warm one. Its request record and match scratch wait in free
// lists, and so does the bound column's probe scratch. The standard
// library's pools empty too: the httptest request is made outside the
// count, and the JSON encoder's pool is refilled with a state that has
// already held an answer, on the one P the test runs on.
func TestWarmRequestSurvivesCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	var answer []byte
	mallocs := func(collect bool) uint64 {
		rw := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/match", strings.NewReader(l1Request))
		if collect {
			runtime.GC()
			runtime.GC()
			if _, err := json.Marshal(json.RawMessage(answer)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rw, r)
		runtime.ReadMemStats(&after)
		if rw.Code != 200 {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
		answer = rw.Body.Bytes()
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 3 {
		mallocs(false)
	}
	warm := mallocs(false)
	if after := mallocs(true); after > warm {
		t.Fatalf("a request after two collections allocates %d times, a warm one %d", after, warm)
	}
}
