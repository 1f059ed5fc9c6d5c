package serve

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/leakcheck"
)

func testKey(t testing.TB) []byte {
	t.Helper()
	key, err := loadStreamKey(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestCursorRoundTrip(t *testing.T) {
	key := testKey(t)
	want := Cursor{Job: "jdeadbeef", Shard: 7, Offset: 512, Matcher: "sha:abc"}
	raw := encodeCursor(key, want)
	if !strings.HasPrefix(raw, cursorPrefix+".") {
		t.Fatalf("cursor %q lacks the %s prefix", raw, cursorPrefix)
	}
	got, err := parseCursor(key, raw)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// TestCursorFailsClosed pins the uniform-rejection contract: every
// malformed, truncated, forged, or foreign token gets the same 400 and
// the same message — never a panic, never a distinguishing hint.
func TestCursorFailsClosed(t *testing.T) {
	defer fault.Reset()
	key := testKey(t)
	otherKey := testKey(t)
	valid := encodeCursor(key, Cursor{Job: "j1", Shard: 1, Offset: 2, Matcher: "m"})

	// A payload that authenticates but decodes to nonsense fields.
	badFields, _ := splitPayload(t, key, Cursor{Job: "", Shard: 1, Offset: 0, Matcher: "m"})
	negShard, _ := splitPayload(t, key, Cursor{Job: "j1", Shard: -1, Offset: 0, Matcher: "m"})

	cases := map[string]string{
		"empty":            "",
		"not a cursor":     "hello",
		"wrong prefix":     "emc2" + valid[len(cursorPrefix):],
		"two parts":        valid[:strings.LastIndex(valid, ".")],
		"four parts":       valid + ".extra",
		"truncated":        valid[:len(valid)-5],
		"payload not b64":  cursorPrefix + ".!!!." + strings.Split(valid, ".")[2],
		"mac not b64":      strings.Join(strings.Split(valid, ".")[:2], ".") + ".!!!",
		"foreign key":      encodeCursor(otherKey, Cursor{Job: "j1", Shard: 1, Offset: 2, Matcher: "m"}),
		"oversized":        cursorPrefix + "." + strings.Repeat("A", 2048),
		"empty job field":  badFields,
		"negative shard":   negShard,
		"flipped mac bit":  flipLastChar(valid),
		"payload tampered": tamperPayload(valid),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := parseCursor(key, raw)
			re, ok := err.(*RequestError)
			if !ok {
				t.Fatalf("parse(%q) err = %v, want *RequestError", raw, err)
			}
			if re.Status != http.StatusBadRequest || re.Msg != "invalid cursor" {
				t.Fatalf("parse(%q) = %d %q, want uniform 400 \"invalid cursor\"", raw, re.Status, re.Msg)
			}
		})
	}

	// The serve.stream.cursor fault site also fails closed.
	fault.Enable("serve.stream.cursor", fault.Plan{})
	if _, err := parseCursor(key, valid); err == nil {
		t.Fatal("injected cursor fault did not reject the token")
	}
	fault.Reset()
	if _, err := parseCursor(key, valid); err != nil {
		t.Fatalf("valid cursor rejected after fault reset: %v", err)
	}
}

// splitPayload signs a cursor whose decoded fields should be rejected.
func splitPayload(t *testing.T, key []byte, c Cursor) (string, error) {
	t.Helper()
	return encodeCursor(key, c), nil
}

// flipLastChar swaps the last base64 character of the token's MAC that
// is all data. The very last one carries two padding bits the decoder
// ignores ('A' and 'B' decode alike there), so it is the one before.
func flipLastChar(s string) string {
	b := []byte(s)
	i := len(b) - 2
	if b[i] == 'A' {
		b[i] = 'B'
	} else {
		b[i] = 'A'
	}
	return string(b)
}

// tamperPayload flips one bit inside the signed payload, keeping the
// MAC: the signature must catch it.
func tamperPayload(s string) string {
	parts := strings.Split(s, ".")
	raw, err := base64.RawURLEncoding.DecodeString(parts[1])
	if err != nil {
		return s
	}
	raw[len(raw)/2] ^= 0x01
	parts[1] = base64.RawURLEncoding.EncodeToString(raw)
	return strings.Join(parts, ".")
}

// TestStreamKeyPersistence: the signing key survives restarts (same dir
// → same key, so cursors outlive the process), and a corrupt key file
// is replaced rather than trusted.
func TestStreamKeyPersistence(t *testing.T) {
	dir := t.TempDir()
	k1, err := loadStreamKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loadStreamKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1, k2) {
		t.Fatal("stream key changed across loads — cursors would not survive a restart")
	}
	if err := os.WriteFile(filepath.Join(dir, streamKeyFile), []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	k3, err := loadStreamKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k3) || len(k3) != 32 {
		t.Fatal("corrupt key file was not replaced with a fresh key")
	}
}

// TestCursorAuthorization exercises parseCursorFor's binding end to
// end: a signed cursor is a capability on exactly one job at a valid
// position under the live matcher — anything else is 400 (or 409 for a
// stale matcher, which is retryable-by-restart rather than hostile).
func TestCursorAuthorization(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	s, ts := newTestServer(t, jobConfig(t.TempDir()))
	jm := s.JobTier()

	st := submitJob(t, ts.URL, jobPayload(4)) // 2 shards of 2
	waitJobState(t, ts.URL, st.ID, JobCompleted, 5*time.Second)
	job := jm.Get(st.ID)

	good, err := jm.parseCursorFor(job, jm.cursorFor(job, 1, 1))
	if err != nil || good.Shard != 1 || good.Offset != 1 {
		t.Fatalf("valid cursor rejected: %+v, %v", good, err)
	}
	// Terminal cursor (shard == shards, offset 0) is valid: it resumes
	// to the summary line.
	if _, err := jm.parseCursorFor(job, jm.cursorFor(job, job.shards, 0)); err != nil {
		t.Fatalf("terminal cursor rejected: %v", err)
	}

	reject := map[string]string{
		"cross-job":        encodeCursor(jm.streamKey, Cursor{Job: "jother", Shard: 0, Offset: 0, Matcher: jm.matcherChecksum()}),
		"shard past end":   jm.cursorFor(job, job.shards+1, 0),
		"offset past end":  jm.cursorFor(job, 0, job.shardLen(0)),
		"terminal +offset": jm.cursorFor(job, job.shards, 1),
	}
	for name, raw := range reject {
		t.Run(name, func(t *testing.T) {
			_, err := jm.parseCursorFor(job, raw)
			re, ok := err.(*RequestError)
			if !ok || re.Status != http.StatusBadRequest || re.Msg != "invalid cursor" {
				t.Fatalf("parseCursorFor = %v, want uniform 400", err)
			}
		})
	}

	// Matcher drift: same job, same position, different artifact — the
	// stream's earlier and later bytes would disagree, so the client
	// must restart, not resume.
	stale := encodeCursor(jm.streamKey, Cursor{Job: job.ID, Shard: 0, Offset: 0, Matcher: "sha:stale"})
	_, err = jm.parseCursorFor(job, stale)
	re, ok := err.(*RequestError)
	if !ok || re.Status != http.StatusConflict {
		t.Fatalf("stale-matcher cursor = %v, want 409", err)
	}
}

// FuzzParseCursor: hostile tokens never panic, never partially decode,
// and only the genuine signature authenticates. The fuzzer gets a
// valid token in the corpus so mutations explore near-misses.
func FuzzParseCursor(f *testing.F) {
	key, err := loadStreamKey(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	valid := encodeCursor(key, Cursor{Job: "j0123456789abcdef", Shard: 3, Offset: 17, Matcher: "sha:fuzz"})
	f.Add(valid)
	f.Add("")
	f.Add(cursorPrefix + "..")
	f.Add(cursorPrefix + ".e30.AAAA")
	f.Add(strings.Repeat(".", 100))
	f.Fuzz(func(t *testing.T, raw string) {
		c, err := parseCursor(key, raw)
		if err != nil {
			re, ok := err.(*RequestError)
			if !ok || re.Status != http.StatusBadRequest || re.Msg != "invalid cursor" {
				t.Fatalf("parse(%q) failed open: %v", raw, err)
			}
			if c != (Cursor{}) {
				t.Fatalf("rejected token leaked a partial decode: %+v", c)
			}
			return
		}
		// Anything that authenticates must re-encode to the exact same
		// token: base64url raw + canonical JSON leaves no malleability,
		// so a fuzzer cannot mint a second spelling of a valid cursor.
		if got := encodeCursor(key, c); got != raw {
			t.Fatalf("accepted token %q is not canonical (re-encodes to %q)", raw, got)
		}
		if c.Job == "" || c.Shard < 0 || c.Offset < 0 {
			t.Fatalf("accepted cursor with invalid fields: %+v", c)
		}
	})
}
