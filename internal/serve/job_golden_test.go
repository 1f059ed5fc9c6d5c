package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

// TestGoldenJobStoreBytes pins the job tier's on-disk format for a fixed
// four-record job: the exact bytes of one shard artifact (a sure-rule
// record and a learned one) and the manifest's entry set with each
// shard's size and checksum. A job directory written by one build must
// resume under the next, so these change only with a format version.
func TestGoldenJobStoreBytes(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s, ts := newTestServer(t, jobConfig(dir))
	st := submitJob(t, ts.URL, jobPayload(4)) // 2 shards of 2
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	s.Close()

	shard, err := os.ReadFile(filepath.Join(dir, st.ID, "shard_00000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(shard) != goldenShard0 {
		t.Errorf("shard_00000.json:\n got %s\nwant %s", shard, goldenShard0)
	}

	raw, err := os.ReadFile(filepath.Join(dir, st.ID, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Version   int `json:"version"`
		Artifacts map[string]struct {
			File   string `json:"file"`
			SHA256 string `json:"sha256"`
			Size   int64  `json:"size"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var entries []string
	for name, a := range m.Artifacts {
		if name == "job.json" {
			// Its bytes embed the job ID, which binds the matcher
			// artifact's checksum; the name is the format.
			entries = append(entries, name)
			continue
		}
		b, _ := json.Marshal(a)
		entries = append(entries, name+" "+string(b))
	}
	sort.Strings(entries)
	if got := strings.Join(entries, "\n"); m.Version != 1 || got != goldenJobManifest {
		t.Errorf("manifest v%d entries:\n%s\nwant v1:\n%s", m.Version, got, goldenJobManifest)
	}
}

const (
	goldenShard0      = `{"shard":0,"records":[{"index":0,"matches":[{"right_id":"r0","right_index":0,"source":"rule:M1"}],"degraded":false,"candidates":0,"vetoed":0},{"index":1,"matches":[{"right_id":"r1","right_index":1,"source":"matcher","score":1}],"degraded":false,"candidates":1,"vetoed":0}]}`
	goldenJobManifest = `job.json
shard_00000.json {"file":"shard_00000.json","sha256":"6b6621c2b88b063880b36330b3c83e40a5cc867495972a680cf8c986da7e7b58","size":273}
shard_00001.json {"file":"shard_00001.json","sha256":"23a0e9bce316b8b158fcbcc3ee57f3e1d8a7019b3283c80b2bcd8cb811c81e30","size":273}`
)
