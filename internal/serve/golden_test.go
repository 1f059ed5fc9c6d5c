package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
)

// The wire formats of the request record, pinned: which keys an
// access-log line carries and in what order, that its stages are sorted,
// and which keys a /debug/tail entry carries. These read the bytes the
// server wrote, nothing of its types, so they hold across any change to
// how the record is assembled.

// lines returns the buffered access-log lines as written.
func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, line := range strings.Split(b.buf.String(), "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// waitLine polls for the access-log line of the given request ID.
func (b *syncBuffer) waitLine(t *testing.T, id string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range b.lines() {
			if strings.Contains(line, `"request_id":"`+id+`"`) {
				return line
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line for request %q in:\n%s", id, strings.Join(b.lines(), "\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// keyOrder returns an object's keys in document order, and the keys of
// its nested objects under their own key.
func keyOrder(t *testing.T, doc string) (top []string, nested map[string][]string) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, doc)
	}
	nested = map[string][]string{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, doc)
		}
		key := tok.(string)
		top = append(top, key)
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("bad JSON value under %q: %v", key, err)
		}
		if len(raw) > 0 && raw[0] == '{' {
			inner, _ := keyOrder(t, string(raw))
			nested[key] = inner
		}
	}
	return top, nested
}

func postWithID(t *testing.T, url, id, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func TestGoldenAccessLogLines(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	sink := &syncBuffer{}
	_, ts := newTestServer(t, Config{AccessLog: sink})

	// A traced, healthy single request down the learned path.
	traced := strings.Replace(l1Request, `{"record"`, `{"trace":true,"record"`, 1)
	body := postWithID(t, ts.URL+"/v1/match", "golden-ok", traced)
	if !bytes.Contains(body, []byte(`"trace":{`)) {
		t.Fatalf("traced request answered without a trace: %s", body)
	}
	top, nested := keyOrder(t, sink.waitLine(t, "golden-ok"))
	wantOK := "msg time request_id route method status outcome duration_ms queue_wait_ms admission breaker " +
		"records candidates matches bytes_in bytes_out stages"
	if got := strings.Join(top, " "); !sameKeys(got, wantOK) {
		t.Errorf("ok /v1/match line keys:\n got %s\nwant %s", got, wantOK)
	}
	wantStages := "block.join feature.vectorize ml.predict " +
		"serve.block serve.match serve.predict serve.sure_rules serve.veto"
	if got := strings.Join(nested["stages"], " "); got != wantStages {
		t.Errorf("ok /v1/match stages:\n got %s\nwant %s", got, wantStages)
	}

	// A batch the matcher failed under: degraded, still 200.
	fault.Enable("ml.predict", fault.Plan{})
	postWithID(t, ts.URL+"/v1/match/batch", "golden-degraded",
		`{"records":[`+recordOf(l0Request)+`,`+recordOf(l1Request)+`]}`)
	top, nested = keyOrder(t, sink.waitLine(t, "golden-degraded"))
	wantDegraded := "msg time request_id route method status outcome duration_ms queue_wait_ms admission " +
		"degraded degraded_reason breaker records candidates matches bytes_in bytes_out stages"
	if got := strings.Join(top, " "); !sameKeys(got, wantDegraded) {
		t.Errorf("degraded batch line keys:\n got %s\nwant %s", got, wantDegraded)
	}
	if !sort.StringsAreSorted(nested["stages"]) || len(nested["stages"]) == 0 {
		t.Errorf("degraded batch stages not sorted: %v", nested["stages"])
	}
}

// sameKeys compares a key sequence with the golden one. queue_wait_ms is
// the one key a healthy line may lack: it is omitted at zero, and an
// uncontended admission can take no measurable time.
func sameKeys(got, want string) bool {
	return got == want || got == strings.Replace(want, " queue_wait_ms", "", 1)
}

// recordOf strips a single-match request down to its record object.
func recordOf(request string) string {
	return strings.TrimSuffix(strings.TrimPrefix(request, `{"record":`), `}`)
}

func TestGoldenTailEntryKeys(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{TailN: 4})
	postWithID(t, ts.URL+"/v1/match", "golden-tail", l1Request)

	var doc struct {
		Slowest []json.RawMessage `json:"slowest"`
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(doc.Slowest) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached /debug/tail")
		}
		resp, err := http.Get(ts.URL + "/debug/tail")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/tail is not JSON: %v", err)
		}
	}
	top, nested := keyOrder(t, string(doc.Slowest[0]))
	if got := strings.Join(top, " "); got != "event trace" {
		t.Errorf("tail entry keys = %q, want \"event trace\"", got)
	}
	wantEvent := "time request_id route method status outcome duration_ms queue_wait_ms admission breaker " +
		"records candidates matches bytes_in bytes_out stages"
	if got := strings.Join(nested["event"], " "); !sameKeys(got, wantEvent) {
		t.Errorf("tail entry event keys:\n got %s\nwant %s", got, wantEvent)
	}
	wantTrace := "name start duration_ms children"
	if got := strings.Join(nested["trace"], " "); got != wantTrace {
		t.Errorf("tail entry trace keys:\n got %s\nwant %s", got, wantTrace)
	}
}
