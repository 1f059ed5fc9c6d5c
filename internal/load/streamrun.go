package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"
)

// Stream mode: prove the resumable transport end to end against a live
// server. Submit a job, stream its results twice — once clean as the
// byte-exact reference, once through the disconnect-injection chaos
// hook with a persisted cursor — and require the reassembled bytes to
// be identical. The chaos fetch's throughput and resume count land in
// the summary, which bench_snapshot.sh folds into the BENCH trajectory.

// StreamRunConfig drives one stream-mode run.
type StreamRunConfig struct {
	Client ClientConfig
	Pool   *RecordPool
	// ShardSize cuts the submitted job (jobRecords records) into shards
	// (0 = the server's default).
	ShardSize int
	// DisconnectEvery injects a client disconnect after this many
	// committed chunks on the chaos fetch (0 = no injection).
	DisconnectEvery int
	// CursorPath persists the chaos fetch's cursor ("" = memory only).
	CursorPath string
	// JobTimeout bounds the submit→completed wait.
	JobTimeout time.Duration
	// Report receives progress lines (nil = silent).
	Report io.Writer
}

// StreamResult is the stream-mode summary section.
type StreamResult struct {
	JobID   string `json:"job_id"`
	Records int    `json:"records"`
	// Bytes/Lines/Chunks/Resumes account the chaos (resumed) fetch.
	Bytes     int64   `json:"bytes"`
	Lines     int     `json:"lines"`
	Chunks    int     `json:"chunks"`
	Resumes   int     `json:"resumes"`
	DurationS float64 `json:"duration_s"`
	MBPerS    float64 `json:"mb_per_s"`
	// ByteIdentical reports the chaos fetch reassembled exactly the
	// clean fetch's bytes — the transport's core promise.
	ByteIdentical bool `json:"byte_identical"`
	Pass          bool `json:"pass"`
}

// RunStream executes one stream-mode run.
func RunStream(ctx context.Context, cfg StreamRunConfig) (*StreamResult, error) {
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	report := cfg.Report
	if report == nil {
		report = io.Discard
	}
	c := NewClient(cfg.Client, cfg.Pool)
	defer c.CloseIdle()

	st, err := c.SubmitJob(ctx, cfg.Pool.JobRecords(jobRecords), cfg.ShardSize)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(report, "emload: stream: job %s submitted (%d records)\n", st.ID, jobRecords)
	if _, err := c.AwaitJob(ctx, st.ID, cfg.JobTimeout); err != nil {
		return nil, err
	}

	// Reference: one clean, uninterrupted stream.
	var ref bytes.Buffer
	refStats, err := c.StreamJobResults(ctx, st.ID, &ref, StreamOptions{})
	if err != nil {
		return nil, fmt.Errorf("reference stream: %w", err)
	}

	// Chaos: disconnect-injected, cursor-persisted, resumed.
	var got bytes.Buffer
	start := time.Now()
	stats, err := c.StreamJobResults(ctx, st.ID, &got, StreamOptions{
		DisconnectEvery: cfg.DisconnectEvery,
		CursorPath:      cfg.CursorPath,
		MaxResumes:      refStats.Chunks + 8, // every chunk may disconnect once
	})
	if err != nil {
		return nil, fmt.Errorf("resumed stream: %w", err)
	}
	elapsed := time.Since(start)

	res := &StreamResult{
		JobID:     st.ID,
		Records:   jobRecords,
		Bytes:     stats.Bytes,
		Lines:     stats.Lines,
		Chunks:    stats.Chunks,
		Resumes:   stats.Resumes,
		DurationS: elapsed.Seconds(),
	}
	if elapsed > 0 {
		res.MBPerS = float64(stats.Bytes) / (1 << 20) / elapsed.Seconds()
	}
	res.ByteIdentical = bytes.Equal(ref.Bytes(), got.Bytes())
	res.Pass = res.ByteIdentical && stats.Complete && refStats.Complete

	// A healthy job's stream is one line per record plus the summary.
	if stats.Lines != jobRecords+1 {
		fmt.Fprintf(report, "emload: stream: %d data lines for %d records + summary\n", stats.Lines, jobRecords)
		res.Pass = false
	}
	fmt.Fprintf(report, "emload: stream: %d bytes in %d chunks, %d resumes, %.2f MB/s, byte_identical=%v\n",
		stats.Bytes, stats.Chunks, stats.Resumes, res.MBPerS, res.ByteIdentical)
	return res, nil
}
