package label

import (
	"strings"
	"testing"

	"emgo/internal/block"
)

func queuedTool(t *testing.T, n int) *Tool {
	t.Helper()
	tool := NewTool(NewStore())
	pairs := make([]block.Pair, n)
	for i := range pairs {
		pairs[i] = block.Pair{A: i, B: i + 100}
	}
	if got := tool.Upload(pairs); got != n {
		t.Fatalf("queued %d of %d", got, n)
	}
	if err := tool.OpenSession("alice"); err != nil {
		t.Fatal(err)
	}
	return tool
}

func yesJudge(block.Pair) Label { return Yes }

func TestLabelAllDrainsQueue(t *testing.T) {
	tool := queuedTool(t, 4)
	if err := tool.LabelAll("alice", yesJudge); err != nil {
		t.Fatal(err)
	}
	if n := len(tool.Pending()); n != 0 {
		t.Fatalf("pending after drain: %d", n)
	}
	if tool.store.Counts().Yes != 4 {
		t.Fatalf("labels: %+v", tool.store.Counts())
	}
}

func TestLabelAllGuards(t *testing.T) {
	tool := queuedTool(t, 2)
	if err := tool.LabelAll("bob", yesJudge); err == nil {
		t.Fatal("wrong user must not drain")
	}
	if err := tool.LabelAll("alice", nil); err == nil {
		t.Fatal("nil judge must error")
	}
	// A label the store refuses stops the drain at that pair, named.
	err := tool.LabelAll("alice", func(block.Pair) Label { return Unknown })
	if err == nil || !strings.Contains(err.Error(), "pair (0,100)") {
		t.Fatalf("err: %v", err)
	}
	if tool.store.Len() != 0 || len(tool.Pending()) != 2 {
		t.Fatalf("store %d, pending %d", tool.store.Len(), len(tool.Pending()))
	}
}
