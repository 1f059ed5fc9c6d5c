package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"emgo/internal/obs/slo"
)

// ServerStatus is the subset of emserve's /v1/status document the
// harness asserts against.
type ServerStatus struct {
	SLO *slo.Report `json:"slo"`
}

// JobStatus is the subset of the job poll document the harness reads.
type JobStatus struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	ResumedShards int    `json:"resumed_shards"`
	Error         string `json:"error"`
}

// GetJSON fetches one JSON document from the server; any status but
// 200 is an error carrying the head of the answer.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	status, _, data, err := c.Call(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, status, truncate(data, 200))
	}
	return json.Unmarshal(data, v)
}

// Status fetches the server's operational status document.
func (c *Client) Status(ctx context.Context) (*ServerStatus, error) {
	var st ServerStatus
	if err := c.GetJSON(ctx, "/v1/status", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// The client side of a job's life is spelled here once — submit, await,
// fetch — for the chaos-soak, the blend's job watcher and the smoke
// harness alike.

// submitShedTries bounds how often SubmitJob re-sends a submission the
// server shed: under load, admission may bounce one with 429/503, and the
// job tier is content-addressed, so sending it again is always safe.
const submitShedTries = 20

// SubmitJob submits records as an async job, through transient sheds,
// and returns its status document (202) — resubmitting the same records
// yields the same job id.
func (c *Client) SubmitJob(ctx context.Context, records []map[string]any, shardSize int) (*JobStatus, error) {
	doc := map[string]any{"records": records}
	if shardSize > 0 {
		doc["shard_size"] = shardSize
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	for try := 1; ; try++ {
		status, hdr, data, err := c.Call(ctx, http.MethodPost, "/v1/jobs", body, nil)
		if err != nil {
			return nil, err
		}
		if shed := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable; shed && try < submitShedTries {
			hint, _ := retryAfterHint(hdr)
			if err := c.shedWait(ctx, hint); err != nil {
				return nil, err
			}
			continue
		}
		if status != http.StatusAccepted {
			return nil, fmt.Errorf("job submit: %d: %s", status, truncate(data, 200))
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
			return nil, fmt.Errorf("job submit answer carries no id: %s", truncate(data, 200))
		}
		return &st, nil
	}
}

// shedWait sits out one shed answer: the server's Retry-After hint, a
// short default without one, never longer than MaxRetryAfter.
func (c *Client) shedWait(ctx context.Context, hint time.Duration) error {
	if hint <= 0 {
		hint = 200 * time.Millisecond
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(min(hint, c.cfg.MaxRetryAfter)):
		return nil
	}
}

// JobStatus polls one job.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.GetJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// AwaitJob polls (at least once) until the job reaches a terminal state
// or the deadline lapses; only "completed" is not an error.
func (c *Client) AwaitJob(ctx context.Context, id string, timeout time.Duration) (*JobStatus, error) {
	deadline := time.Now().Add(timeout)
	var last *JobStatus
	for {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		st, err := c.JobStatus(ctx, id)
		if err == nil {
			last = st
			switch st.State {
			case "completed":
				return st, nil
			case "failed":
				return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	state := "unknown"
	if last != nil {
		state = last.State
	}
	return last, fmt.Errorf("job %s did not complete within %v (state %s)", id, timeout, state)
}

// JobResults streams a completed job's results into memory. What comes
// back is the stream's data lines — cursor tokens are signed per job
// dir, the data lines are what "byte-identical" means across them.
func (c *Client) JobResults(ctx context.Context, id string) ([]byte, error) {
	var buf bytes.Buffer
	_, err := c.StreamJobResults(ctx, id, &buf, StreamOptions{})
	return buf.Bytes(), err
}

// FinishJob follows a submitted job to its end: await it, then fetch its
// results.
func (c *Client) FinishJob(ctx context.Context, id string, timeout time.Duration) (*JobStatus, []byte, error) {
	st, err := c.AwaitJob(ctx, id, timeout)
	if err != nil {
		return st, nil, err
	}
	body, err := c.JobResults(ctx, id)
	return st, body, err
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}
