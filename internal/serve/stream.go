package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/obs"
)

// Streaming result transport: GET /v1/jobs/{id}/results — the one way
// results leave the job tier — walks the job's durable shard artifacts
// one at a time and writes the result records as NDJSON, so serving a
// multi-million-row job holds one shard in memory, not the document. The transport is built to be
// abandoned at any instant and picked back up:
//
//   - every flush boundary emits a control line {"cursor":"..."} whose
//     opaque HMAC-signed token (internal/serve/cursor.go) names the
//     exact durable position the client has now fully received; the
//     same token rides the X-Stream-Cursor trailer;
//   - ?cursor= resumes exactly there — the concatenation of the data
//     lines across any number of connections is byte-identical to a
//     one-shot fetch, which is what makes "download died at 80%" a
//     resume instead of a re-download;
//   - each chunk is written under its own write deadline (the
//     slow-reader budget), overriding the http.Server's global
//     WriteTimeout for this request: a stalled reader is cut within the
//     budget — holding a resumable cursor, the 408 it cannot be sent —
//     while a merely slow one streams for as long as it keeps reading;
//   - at most Stream.MaxStreams streams hold result files open at once;
//     beyond that the request sheds with 429 + Retry-After like every
//     other overload;
//   - a drain ends active streams at the next flush boundary with a
//     valid cursor instead of truncating mid-record.
//
// Line vocabulary (data lines reassemble; control lines steer):
//
//	{"index":...}          data: one record's result
//	{"done":true,...}      data: the terminal summary line
//	{"cursor":"emc1..."}   control: resume token (client strips)

// Streaming-transport defaults.
const (
	DefaultStreamChunkTimeout = 15 * time.Second
	DefaultStreamMaxStreams   = 4
	DefaultStreamFlushEvery   = 256
)

// streamCursorTrailer is the HTTP trailer carrying the final cursor.
const streamCursorTrailer = "X-Stream-Cursor"

// StreamConfig tunes the streaming results transport. The zero value
// serves with defaults.
type StreamConfig struct {
	// ChunkTimeout is the slow-reader budget: the write deadline armed
	// for each flushed chunk (default DefaultStreamChunkTimeout). A
	// reader that stalls past it is cut — with a valid resume cursor
	// already delivered at the previous boundary.
	ChunkTimeout time.Duration
	// MaxStreams bounds how many streams may hold result files open
	// concurrently; excess requests shed with 429 + Retry-After
	// (default DefaultStreamMaxStreams).
	MaxStreams int
	// FlushEvery is the records-per-flush boundary within a shard
	// (default DefaultStreamFlushEvery). Shard boundaries always flush.
	FlushEvery int
}

// withDefaults fills zero fields.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.ChunkTimeout <= 0 {
		c.ChunkTimeout = DefaultStreamChunkTimeout
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultStreamMaxStreams
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = DefaultStreamFlushEvery
	}
	return c
}

// streamSummaryLine is the terminal data line of a complete stream. Its
// fields are all static job facts, so a resumed fetch emits the exact
// bytes a one-shot fetch does.
type streamSummaryLine struct {
	Done    bool   `json:"done"`
	JobID   string `json:"job_id"`
	Records int    `json:"records"`
	Shards  int    `json:"shards"`
}

// streamJobResults serves one streaming fetch of a completed job,
// starting at cur (the zero position for a fresh fetch). The caller
// has already validated job state and parsed/authorized the cursor.
func (s *Server) streamJobResults(w http.ResponseWriter, r *http.Request, jm *Jobs, job *Job, cur Cursor) {
	ev := eventFrom(r.Context())
	// The gate: K streams hold shard files open; the K+1th sheds.
	select {
	case s.streamSem <- struct{}{}:
	default:
		annotateAdmission(ev, AdmissionShedQueueFull, 0)
		writeError(w, http.StatusTooManyRequests, "stream limit reached", s.adm.RetryAfter())
		return
	}
	defer func() { <-s.streamSem }()
	ev.Streamed = true
	ev.StreamFrom = fmt.Sprintf("%d/%d", cur.Shard, cur.Offset)

	// Trailers must be declared before the first byte of the body; the
	// final cursor lands there for clients that read to the end, and in
	// the last control line for clients that do not.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", streamCursorTrailer)
	w.WriteHeader(http.StatusOK)

	st := &streamState{
		s:      s,
		jm:     jm,
		job:    job,
		rc:     http.NewResponseController(w),
		bw:     bufio.NewWriterSize(w, 32<<10),
		budget: s.cfg.Stream.ChunkTimeout,
		last:   cur,
	}
	end, err := st.run(r)

	// However the stream ended — complete, cut, drained — the trailer
	// names the first position the client has NOT durably received.
	w.Header().Set(streamCursorTrailer, jm.cursorFor(job, end.Shard, end.Offset))
	ev.StreamChunks = st.chunks
	ev.StreamEnd = fmt.Sprintf("%d/%d", end.Shard, end.Offset)
	ev.Records = st.records
	switch {
	case err != nil:
		// The write path failed: slow reader past its budget, client
		// gone, or an injected serve.stream.write fault. The status is
		// long since written, so the "408" is a cut connection whose
		// last flushed chunk ended with a valid cursor.
		obs.C("serve.stream.cut").Inc()
		ev.Outcome = obs.OutcomeStreamCut
		ev.Err = err.Error()
	case end.Shard >= job.shards:
		ev.StreamComplete = true
	default:
		// Ended early at a flush boundary without a write error: drain.
		ev.Outcome = obs.OutcomeDraining
	}
}

// streamState carries one stream's write-side plumbing.
type streamState struct {
	s      *Server
	jm     *Jobs
	job    *Job
	rc     *http.ResponseController
	bw     *bufio.Writer
	budget time.Duration
	last   Cursor // first position not yet flushed to the client

	chunks  int
	records int
}

// run walks shards from st.last to the end (or a cut/drain), returning
// the first position the client has not durably received.
func (st *streamState) run(r *http.Request) (Cursor, error) {
	job, jm := st.job, st.jm
	for shard := st.last.Shard; shard < job.shards; shard++ {
		if st.s.draining.Load() {
			// Drain: end at this boundary with a pure-cursor chunk so
			// the client learns the resume position even if it was not
			// tracking trailers.
			return st.last, st.flushChunk(nil, st.last)
		}
		if err := r.Context().Err(); err != nil {
			return st.last, err
		}
		// The fetch-side read, bounded by one shard's bytes: nothing is
		// sent that has not verified, decoded and validated.
		art, err := ckpt.Restore(job.store, shardName(shard), validShard)
		if err != nil {
			// The shard went corrupt under us, or is an older build's
			// quarantine marker; the store has quarantined it and the job
			// is re-queued to recompute it. The stream ends here, never
			// silently partial — the client resumes once the shard is
			// back and gets identical bytes.
			jm.enqueue(job)
			return st.last, fmt.Errorf("shard %d unreadable (%v); job re-queued for recompute", shard, err)
		}
		offset := 0
		if shard == st.last.Shard {
			offset = st.last.Offset
		}
		recs := art.Records
		for lo := offset; lo < len(recs); lo += st.s.cfg.Stream.FlushEvery {
			hi := lo + st.s.cfg.Stream.FlushEvery
			next := Cursor{Shard: shard, Offset: hi}
			if hi >= len(recs) {
				hi = len(recs)
				next = Cursor{Shard: shard + 1}
			}
			lines := make([]any, hi-lo)
			for i := range lines {
				lines[i] = recs[lo+i]
			}
			if err := st.flushChunk(lines, next); err != nil {
				return st.last, err
			}
			st.records += hi - lo
		}
	}
	// Terminal chunk: the summary data line plus the end-of-job cursor
	// (resuming from it yields the summary line again and nothing else,
	// so clients stop resuming once they have seen it).
	done := Cursor{Shard: job.shards}
	summary := streamSummaryLine{Done: true, JobID: job.ID, Records: len(job.rows), Shards: job.shards}
	return done, st.flushChunk([]any{summary}, done)
}

// flushChunk writes one chunk — data lines, then the control line
// signing next as the new resume position — under a fresh write
// deadline, and flushes it to the wire. Only after a clean flush does
// st.last advance: a failed chunk leaves the stream's durable position
// at the previous boundary, which is exactly what the client will
// resume from.
func (st *streamState) flushChunk(lines []any, next Cursor) error {
	if err := fault.Inject("serve.stream.write"); err != nil {
		return err
	}
	// One deadline covers building and flushing the whole chunk,
	// including any mid-chunk auto-flushes of the buffered writer.
	if err := st.rc.SetWriteDeadline(time.Now().Add(st.budget)); err != nil {
		return err
	}
	for _, line := range lines {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		st.bw.Write(data)
		st.bw.WriteByte('\n')
	}
	cur := st.jm.cursorFor(st.job, next.Shard, next.Offset)
	// The cursor token is base64url + dots: JSON-safe without escaping.
	ctl := `{"cursor":"` + cur + `"}` + "\n"
	st.bw.WriteString(ctl)
	if err := st.bw.Flush(); err != nil {
		return err
	}
	if err := st.rc.Flush(); err != nil {
		return err
	}
	st.chunks++
	st.last = next
	return nil
}
