package block

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// shardBlockers are token blockers over one column in one form, so a
// union runs them as one join: overlap at every K the oracle titles reach,
// the overlap coefficient and Jaccard.
func shardBlockers() []Blocker {
	var bs []Blocker
	for k := 1; k <= 6; k++ {
		bs = append(bs, Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: k, Normalize: true})
	}
	return append(bs,
		OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.7, Normalize: true},
		JaccardJoin{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}, Threshold: 0.4, Normalize: true})
}

// joinGroup is blockers bound to right as the one group a shared pass
// joins.
func joinGroup(t *testing.T, right *table.Table, blockers []Blocker) []*boundTokens {
	t.Helper()
	var group []*boundTokens
	for _, b := range mustBind(t, right, blockers...) {
		group = append(group, b.(*boundTokens))
	}
	for _, b := range group[1:] {
		if b.col != group[0].col {
			t.Fatal("fixture: the blockers do not share a column")
		}
	}
	return group
}

// leftPrefix is the first n rows of l.
func leftPrefix(l *table.Table, n int) *table.Table {
	out := table.New(l.Name(), l.Schema())
	for i := 0; i < n; i++ {
		out.MustAppend(l.Row(i))
	}
	return out
}

// TestShardedJoinMatchesSerial: a token join probed in left-row shards
// emits, blocker by blocker, the pair sequence the same join emits on one
// shard — at every core count, and at left sizes either side of each step
// of the shard rule — over a column whose tokens are all dense and over
// one mixing dense and sparse tokens. The test sets the core count
// itself, and make race-cpu runs it ten times over, since what the shards
// write is only checked when they really do run at once.
func TestShardedJoinMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	l, r := oracleTables(rand.New(rand.NewSource(36)), 513, 300)
	checkShardedJoin(t, l, r)
	l, r = zipfTables(t, 36, 513, 1030)
	checkShardedJoin(t, l, r)
}

// checkShardedJoin is TestShardedJoinMatchesSerial over one pair of
// tables, l of 513 rows.
func checkShardedJoin(t *testing.T, l, r *table.Table) {
	t.Helper()
	group := joinGroup(t, r, shardBlockers())
	join := func(procs int, left *table.Table) []*CandidateSet {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		sets := make([]*CandidateSet, len(group))
		if err := joinTokens(context.Background(), left, r, group, sets); err != nil {
			t.Fatal(err)
		}
		return sets
	}
	sharded := false
	for _, n := range []int{0, 1, 255, 256, 511, 512, 513} {
		left := leftPrefix(l, n)
		want := join(1, left)
		for k, set := range want {
			if n == 513 && set.Len() == 0 {
				t.Fatalf("fixture: %s blocks nothing", group[k].Name())
			}
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			sharded = sharded || joinShards(n) > 1
			for k, set := range join(procs, left) {
				if !slices.Equal(set.Pairs(), want[k].Pairs()) {
					t.Fatalf("%d left rows, GOMAXPROCS %d (%d shards), %s:\n got %v\nwant %v",
						n, procs, joinShards(n), group[k].Name(), set.Pairs(), want[k].Pairs())
				}
				if cap(set.Pairs()) != set.Len() {
					t.Fatalf("%d left rows, GOMAXPROCS %d, %s: %d pairs in room for %d", n, procs, group[k].Name(), set.Len(), cap(set.Pairs()))
				}
			}
		}
	}
	if !sharded {
		t.Fatal("no size and core count took more than one shard")
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a join ends at the same stride check however its shards are
// scheduled. Done never closes: the join notices only by asking.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestShardedJoinCancelled: a join cancelled mid-run fails with the
// context's error and the text a one-shard join gives, never an error
// naming the shard it ended in (make race-cpu runs it ten times over).
func TestShardedJoinCancelled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	l, r := oracleTables(rand.New(rand.NewSource(36)), 513, 300)
	bound := mustBind(t, r, shardBlockers()...)
	var texts []string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		// The union's first look, then the shards' first stride checks.
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		_, err := UnionBlockCtx(ctx, l, r, bound...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want context.Canceled", procs, err)
		}
		if ctx.calls.Load() >= int64(l.Len()/cancelStride) {
			t.Fatalf("GOMAXPROCS %d: the join ran on after cancellation (%d checks)", procs, ctx.calls.Load())
		}
		texts = append(texts, err.Error())
	}
	want := fmt.Sprintf("block: %s: context canceled", shardBlockers()[0].Name())
	for _, got := range texts {
		if got != want {
			t.Fatalf("cancelled joins say %q, want %q", texts, want)
		}
	}
}

// TestOneRowUnionStaysOnTheCaller: a one-row request blocked against the
// Figure 10 blockers, bound, allocates what a join on the caller does —
// its sets, one pair slice for each non-empty set and one growth of the
// union per later blocker — and nothing more. Fanning out to even
// one goroutine (parallel's channels, closure and stop state) would cost
// more than that, so the request path cannot take the sharded join
// unnoticed. It counts only outside the race detector, so make test
// holds it and make race-cpu does not.
func TestOneRowUnionStaysOnTheCaller(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	l, r := figure10Tables(8, 1915)
	bound := mustBind(t, r, figure10(tokenize.Word{})...)
	request := table.New("request", l.Schema())
	request.MustAppend(l.Row(7))
	c, err := UnionBlockCtx(context.Background(), request, r, bound...)
	if err != nil || c.Len() == 0 {
		t.Fatalf("fixture: the request blocks %d pairs (%v)", c.Len(), err)
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, where every join is one
	// shard whatever the rule says; count at four cores instead, where a
	// request that fanned out would start goroutines. A collection would
	// empty the scratch pool mid-count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < runs; n++ {
		if _, err := UnionBlockCtx(context.Background(), request, r, bound...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	// The call's bookkeeping — the union's, the shared pass's, the
	// admission rows — is on the stack or in the column's pooled scratch,
	// and a bound blocker's name was built at Bind: 10 allocations are the
	// four sets (the union's and each blocker's), their pair slices (the
	// key blocker's two hits grow its slice twice), and the union grown
	// for each blocker after the first, whose set it starts from; 19 when
	// the bookkeeping was allocated per call. One spare.
	const ceiling = 4 + 4 + 2 + 1
	if allocs > ceiling {
		t.Fatalf("a one-row union allocates %d times, want at most %d", allocs, ceiling)
	}
}
