package load

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"strings"
	"time"

	"emgo/internal/ckpt"
)

// Streaming results client: fetches /v1/jobs/{id}/results and survives
// everything the transport is built to survive — dropped connections, a
// server restart, its own process being SIGKILLed. The
// discipline that makes the output byte-identical to a one-shot fetch
// is commit-on-cursor: data lines are buffered per chunk and written to
// the output only when the chunk's trailing {"cursor":...} control line
// arrives. A connection that dies mid-chunk loses only uncommitted
// lines, and the resume re-fetches exactly those — never a duplicate,
// never a gap. The committed cursor is persisted after every chunk, so
// a killed client restarts from its cursor file, not from zero.

// StreamOptions tunes one streaming fetch.
type StreamOptions struct {
	// CursorPath persists the last committed cursor after every chunk
	// ("" keeps it in memory only), and a fetch resumes from the cursor
	// it holds from a previous run. The file is written atomically so a
	// kill between chunks leaves a valid resume point.
	CursorPath string
	// MaxResumes caps reconnections before giving up (default 8).
	MaxResumes int
	// disconnectEvery is the resume tests' seam: drop the connection
	// after this many committed chunks and resume (0 = off).
	disconnectEvery int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.MaxResumes <= 0 {
		o.MaxResumes = 8
	}
	return o
}

// StreamStats accounts one streaming fetch.
type StreamStats struct {
	// Bytes and Lines are committed output (data lines only — control
	// lines are transport, not payload).
	Bytes int64
	Lines int
	// Chunks counts committed chunks; Resumes counts reconnections
	// (injected disconnects, server cuts, drains, and shed waits).
	Chunks  int
	Resumes int
	// Complete reports the terminal summary line was committed.
	Complete bool
	// Cursor is the last committed resume token.
	Cursor string
}

// streamLine is the minimal per-line probe: control lines carry Cursor,
// the terminal data line carries Done.
type streamLine struct {
	Cursor string `json:"cursor"`
	Done   bool   `json:"done"`
}

// StreamJobResults streams a completed job's results into w, resuming
// across disconnects until the terminal summary line commits. The bytes
// written to w are exactly the data lines of a one-shot stream.
func (c *Client) StreamJobResults(ctx context.Context, id string, w io.Writer, opt StreamOptions) (*StreamStats, error) {
	opt = opt.withDefaults()
	stats := &StreamStats{}
	if opt.CursorPath != "" {
		if b, err := os.ReadFile(opt.CursorPath); err == nil {
			stats.Cursor = strings.TrimSpace(string(b))
		}
	}
	// Streams last as long as the reader is slow; the load client's
	// per-request Timeout would cut healthy long fetches, so streaming
	// rides an untimed client on the shared transport. Cancellation
	// still arrives through ctx.
	hc := &http.Client{Transport: c.http.Transport}

	resumes := 0
	for {
		complete, err := c.streamOnce(ctx, hc, id, w, opt, stats)
		if complete {
			stats.Resumes = resumes
			return stats, nil
		}
		if ctx.Err() != nil {
			stats.Resumes = resumes
			return stats, ctx.Err()
		}
		if resumes >= opt.MaxResumes {
			stats.Resumes = resumes
			return stats, fmt.Errorf("stream of job %s incomplete after %d resumes: %w", id, resumes, err)
		}
		resumes++
		var shed *shedError
		if errors.As(err, &shed) {
			// 429/503: the stream gate or a drain. Honor the hint like
			// every other client, bounded the same way.
			if err := c.shedWait(ctx, shed.retryAfter); err != nil {
				stats.Resumes = resumes
				return stats, err
			}
		}
	}
}

// shedError marks a 429/503 answer on the stream route.
type shedError struct {
	status     int
	retryAfter time.Duration
}

func (e *shedError) Error() string { return fmt.Sprintf("stream shed: %d", e.status) }

// streamOnce runs one connection's worth of the stream: connect at the
// current cursor, commit chunks as their cursors arrive, stop at the
// summary line, an injected disconnect, or a transport error. It
// reports whether the stream is complete; an incomplete return's error
// explains why this connection ended (the caller decides on resuming).
func (c *Client) streamOnce(ctx context.Context, hc *http.Client, id string, w io.Writer, opt StreamOptions, stats *StreamStats) (bool, error) {
	url := c.cfg.BaseURL + "/v1/jobs/" + id + "/results"
	if stats.Cursor != "" {
		url += "?cursor=" + neturl.QueryEscape(stats.Cursor)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
		hint, _ := retryAfterHint(resp.Header)
		return false, &shedError{status: resp.StatusCode, retryAfter: hint}
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return false, fmt.Errorf("stream job results: %d: %s", resp.StatusCode, truncate(data, 200))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var pending [][]byte // this chunk's data lines, uncommitted
	pendingDone := false
	chunksThisConn := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe streamLine
		if err := json.Unmarshal(line, &probe); err != nil {
			return false, fmt.Errorf("stream line is not JSON: %s", truncate(line, 120))
		}
		if probe.Cursor == "" {
			// Data line: buffer until its chunk's cursor arrives.
			pending = append(pending, append([]byte(nil), line...))
			if probe.Done {
				pendingDone = true
			}
			continue
		}
		// Control line: the server has durably delivered everything
		// buffered. Commit — output first, then the cursor, so a kill
		// between the two re-fetches a chunk rather than skipping one.
		if err := commitChunk(w, pending, probe.Cursor, opt.CursorPath, stats); err != nil {
			return false, err
		}
		if pendingDone {
			stats.Complete = true
			return true, nil
		}
		pending = pending[:0]
		chunksThisConn++
		if opt.disconnectEvery > 0 && chunksThisConn >= opt.disconnectEvery {
			// Abandon the connection mid-stream. Anything after the
			// committed cursor is re-fetched on resume.
			return false, fmt.Errorf("injected disconnect after %d chunks", chunksThisConn)
		}
	}
	// The connection ended without the summary line: server cut, drain,
	// or a torn chunk. Uncommitted lines are dropped by design.
	if err := sc.Err(); err != nil {
		return false, err
	}
	return false, fmt.Errorf("stream ended before the summary line (%d uncommitted lines dropped)", len(pending))
}

// commitChunk writes a chunk's data lines to the output and persists
// the cursor that vouches for them.
func commitChunk(w io.Writer, lines [][]byte, cursor, cursorPath string, stats *StreamStats) error {
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
		stats.Bytes += int64(len(line)) + 1
		stats.Lines++
	}
	stats.Chunks++
	stats.Cursor = cursor
	if cursorPath != "" {
		if err := ckpt.AtomicWriteFile(cursorPath, []byte(cursor), 0o644); err != nil {
			return fmt.Errorf("persist stream cursor: %w", err)
		}
	}
	return nil
}
