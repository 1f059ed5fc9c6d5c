package serve

import (
	"context"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
	"emgo/internal/obs"
)

// metricRow matches the name column of a docs metric-table row.
var metricRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")

// TestLiveRequestWritesOnlyReadMetrics is the half of the metric reader
// rule a scan of the source cannot see: names finished at run time
// (fault.trips.<site>), and whatever a live server writes that the scan
// missed. One request of each shape goes through a fresh registry, and
// every name in its snapshot must have a row in docs/OBSERVABILITY.md's
// "Metric names" table — the table internal/surface's
// TestMetricNamesHaveReaders holds equal to the set of names with a
// reader, so there is one list and this test does not keep a second.
func TestLiveRequestWritesOnlyReadMetrics(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	obs.Disable()
	reg := obs.Enable()
	defer obs.Disable()

	cfg := jobConfig(t.TempDir())
	cfg.Admission = AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}
	cfg.Breaker = BreakerConfig{Failures: 1}
	s, ts := newTestServer(t, cfg)

	if st, _, body := postMatch(t, ts.URL, l1Request); st != http.StatusOK {
		t.Fatalf("single = %d: %s", st, body)
	}
	if st, body := postBatch(t, ts.URL, `{"records":[`+recordOf(l0Request)+`,`+recordOf(l1Request)+`]}`); st != http.StatusOK {
		t.Fatalf("batch = %d: %s", st, body)
	}
	// Shed: the test holds the only slot and nothing may wait.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, _, body := postMatch(t, ts.URL, l1Request)
	release()
	if st != http.StatusTooManyRequests {
		t.Fatalf("request against a full gate = %d: %s", st, body)
	}
	// Degraded: the one matcher failure also opens the breaker.
	fault.Enable("ml.predict", fault.Plan{})
	if st, _, body := postMatch(t, ts.URL, l1Request); st != http.StatusOK || !strings.Contains(string(body), ReasonMatcherError) {
		t.Fatalf("degraded request = %d: %s", st, body)
	}
	fault.Reset()
	job := submitJob(t, ts.URL, jobPayload(4)) // two shards
	waitJobState(t, ts.URL, job.ID, JobCompleted, 5*time.Second)
	fetchResults(t, ts.URL, job.ID)

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metric names\n")
	if !ok {
		t.Fatal(`docs/OBSERVABILITY.md has no "Metric names" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, r := range metricRow.FindAllStringSubmatch(section, -1) {
		rows = append(rows, r[1])
	}
	documented := func(name string) bool {
		for _, row := range rows {
			if head, _, open := strings.Cut(row, "<"); row == name || open && strings.HasPrefix(name, head) {
				return true
			}
		}
		return false
	}

	snap := reg.Snapshot()
	written := map[string]bool{}
	for name := range snap.Counters {
		written[name] = true
	}
	for name := range snap.Histograms {
		written[name] = true
	}
	for name := range written {
		if !documented(name) {
			t.Errorf("a live server wrote the metric %q, which has no row in docs/OBSERVABILITY.md \"Metric names\": nothing reads it (see TestMetricNamesHaveReaders for the rule)", name)
		}
	}
	// The registry was live under all of it: the library below the server
	// counted, and so did a name that only exists once a fault has fired.
	for _, want := range []string{"ml.predictions", "ckpt.writes", "fault.trips.ml.predict"} {
		if !written[want] {
			t.Errorf("the drive never wrote %s (wrote %v)", want, written)
		}
	}
}
