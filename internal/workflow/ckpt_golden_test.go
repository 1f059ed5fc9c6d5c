package workflow

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCheckpointBytes pins RunCtx's on-disk checkpoint format: the
// exact bytes of both stage artifacts and of the manifest that indexes
// them, for the fixed fixture. A store written by one build must resume
// under the next, so these strings change only with a format version.
func TestGoldenCheckpointBytes(t *testing.T) {
	w, tp := hardenedFixture(t)
	dir := t.TempDir()
	if _, err := w.RunCtx(context.Background(), tp.l, tp.r, RunOptions{Checkpoints: openTestStore(t, dir)}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"stage.blocked.json": goldenBlocked,
		"stage.learned.json": goldenLearned,
		"manifest.json":      goldenManifest,
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

const (
	goldenBlocked  = `{"left":"L","right":"R","left_rows":3,"right_rows":3,"pairs":[[0,0],[1,1],[2,2]]}`
	goldenLearned  = `{"left":"L","right":"R","left_rows":3,"right_rows":3,"pairs":[[1,1],[2,2]]}`
	goldenManifest = `{
  "version": 1,
  "fingerprint": "87a9da1f977af2a929d0228895c12641cbbbdafb1d5cd14535dc5d40eb46ebdf",
  "artifacts": {
    "stage.blocked.json": {
      "file": "stage.blocked.json",
      "sha256": "29732a0fd4d1874fcd255cddd457dbb38bd4e8d95065fe4f8de3cdc95641a6a2",
      "size": 81
    },
    "stage.learned.json": {
      "file": "stage.learned.json",
      "sha256": "6973359ca2ae19c3461f2fb3c9ff3a43ac9d91a8a8b9437bcd7090d415bf8d56",
      "size": 75
    }
  }
}`
)
