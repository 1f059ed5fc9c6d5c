package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"emgo/internal/table"
)

// Outcome classes. A request is classified against what its kind
// *expects*: a 400 answer to a deliberately malformed body is ClassOK
// (the reject path worked), while a 200 to it is ClassUnexpected — the
// generator is also a correctness probe.
const (
	ClassOK          = "ok"
	ClassShed        = "shed"         // 429/503: admission policy working
	ClassTimeout     = "timeout"      // client deadline or server 504
	ClassServerError = "server_error" // 5xx
	ClassNetError    = "net_error"    // transport failure
	ClassUnexpected  = "unexpected"   // wrong status for the kind
)

// Outcome is one finished request as the recorder sees it.
type Outcome struct {
	Kind     Kind
	Class    string
	Status   int
	Degraded bool
	// ShedNoRetryAfter marks a shed answer missing its Retry-After
	// header — a contract violation every gate asserts against.
	ShedNoRetryAfter bool
}

// RecordPool holds left-schema records mined from a CSV, the raw
// material every record-bearing request kind draws from. Title-only
// records take the learned blocking + matcher path — the expensive work
// the load test must exercise.
type RecordPool struct {
	titles []string
}

// NewRecordPool mines the title column of the given table CSV.
func NewRecordPool(csvPath string) (*RecordPool, error) {
	t, err := table.ReadCSVFile(csvPath, nil)
	if err != nil {
		return nil, err
	}
	col, err := t.Col("AwardTitle")
	if err != nil {
		return nil, fmt.Errorf("load: record pool: %w", err)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("load: record pool %s is empty", csvPath)
	}
	titles := make([]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		titles[i] = t.Row(i)[col].Str()
	}
	return &RecordPool{titles: titles}, nil
}

// Size is the pool size (what ScheduleConfig.PickN should be).
func (p *RecordPool) Size() int { return len(p.titles) }

// record builds one request record for pool index i with the given id.
func (p *RecordPool) record(id string, i int) map[string]any {
	return map[string]any{
		"RecordId":   id,
		"AwardTitle": p.titles[i%len(p.titles)],
	}
}

// ClientConfig tunes the load client.
type ClientConfig struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Timeout is the per-request client deadline (default 10s).
	Timeout time.Duration
}

// Request shapes: records per KindBatch request, and the body size of a
// KindOversized request — 2 MiB, past the server's 1 MiB default cap.
const (
	batchSize      = 8
	oversizedBytes = 2 << 20
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// Client issues blend requests against one server. Safe for concurrent
// use; every method classifies rather than fails, so the runner's
// accounting survives any server behavior.
type Client struct {
	cfg  ClientConfig
	http *http.Client
	pool *RecordPool
}

// NewClient builds the load client around a record pool (pool may be
// nil when the blend carries no record-bearing kinds).
func NewClient(cfg ClientConfig, pool *RecordPool) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg: cfg,
		http: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				// An open-loop burst needs as many conns as the schedule
				// says, not what Go's per-host default (2) allows.
				MaxIdleConnsPerHost: 256,
			},
		},
		pool: pool,
	}
}

// CloseIdle releases kept-alive connections (end-of-run hygiene).
func (c *Client) CloseIdle() { c.http.CloseIdleConnections() }

// Do issues the i-th arrival's request once and classifies the answer.
// A shed is an answer, not a cue to try again: an open-loop generator
// that retried would count the retry's success as availability the
// server's first answer never earned.
func (c *Client) Do(ctx context.Context, i int, arr Arrival) Outcome {
	body, path, method, expect := c.build(i, arr)
	out := Outcome{Kind: arr.Kind}
	status, hdr, respBody, err := c.Call(ctx, method, path, body, nil)
	if err != nil {
		out.Class = ClassNetError
		if ctx.Err() != nil || isTimeout(err) {
			out.Class = ClassTimeout
		}
		return out
	}
	out.Status = status
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		out.Class = ClassShed
		out.ShedNoRetryAfter = !validRetryAfter(hdr)
		return out
	}
	out.Class = classify(status, expect)
	if out.Class == ClassOK && (arr.Kind == KindSingle || arr.Kind == KindBatch) {
		out.Degraded = isDegraded(arr.Kind, respBody)
	}
	return out
}

// build assembles the i-th request's body, path, method, and the
// status its kind expects.
func (c *Client) build(i int, arr Arrival) (body []byte, path, method string, expect int) {
	switch arr.Kind {
	case KindSingle:
		doc := map[string]any{"record": c.pool.record(fmt.Sprintf("load-%d", i), arr.Record)}
		body, _ = json.Marshal(doc)
		return body, "/v1/match", http.MethodPost, http.StatusOK
	case KindBatch:
		recs := make([]map[string]any, batchSize)
		for j := range recs {
			recs[j] = c.pool.record(fmt.Sprintf("load-%d-%d", i, j), arr.Record+j)
		}
		doc := map[string]any{"records": recs}
		body, _ = json.Marshal(doc)
		return body, "/v1/match/batch", http.MethodPost, http.StatusOK
	case KindMalformed:
		// Truncated JSON with an unknown field: must be refused 400.
		return []byte(`{"reqord": {"AwardTitle": "x"`), "/v1/match", http.MethodPost, http.StatusBadRequest
	case KindOversized:
		// A body past the server's cap: must be refused 413 without
		// buffering the world.
		doc := bytes.Repeat([]byte("x"), oversizedBytes)
		body = append([]byte(`{"record": {"AwardTitle": "`), doc...)
		body = append(body, []byte(`"}}`)...)
		return body, "/v1/match", http.MethodPost, http.StatusRequestEntityTooLarge
	case KindStatus:
		return nil, "/v1/status", http.MethodGet, http.StatusOK
	}
	return nil, "/v1/status", http.MethodGet, http.StatusOK
}

// Call performs one HTTP exchange against the server under test and
// returns the answer unclassified: status, headers, and at most 4 MiB of
// body (the rest is drained so the connection stays reusable). Do
// classifies on top of it; harnesses asserting on specific answers call
// it directly. hdr adds request headers (nil for none); a non-nil body
// is sent as JSON.
func (c *Client) Call(ctx context.Context, method, path string, body []byte, hdr http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode, resp.Header, data, nil
}

// classify maps a terminal status against the kind's expectation.
func classify(status, expect int) string {
	switch {
	case status == expect:
		return ClassOK
	case status == http.StatusGatewayTimeout:
		return ClassTimeout
	case status >= 500:
		return ClassServerError
	default:
		return ClassUnexpected
	}
}

// isTimeout reports whether a transport error is a deadline.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne interface{ Timeout() bool }
	if errors.As(err, &ne) {
		return ne.Timeout()
	}
	return strings.Contains(err.Error(), "Client.Timeout exceeded")
}

// validRetryAfter reports whether a shed answer carries the Retry-After
// header the server promises, in whole seconds.
func validRetryAfter(hdr http.Header) bool {
	s, err := strconv.Atoi(hdr.Get("Retry-After"))
	return err == nil && s >= 0
}

// isDegraded peeks at a successful match answer for the degraded mark.
func isDegraded(kind Kind, body []byte) bool {
	if kind == KindBatch {
		var doc struct {
			Results []struct {
				Degraded bool `json:"degraded"`
			} `json:"results"`
		}
		if json.Unmarshal(body, &doc) == nil {
			for _, r := range doc.Results {
				if r.Degraded {
					return true
				}
			}
		}
		return false
	}
	var doc struct {
		Degraded bool `json:"degraded"`
	}
	return json.Unmarshal(body, &doc) == nil && doc.Degraded
}
