package obs

// The outcome vocabulary: how a unit of work ended. One list, and every
// record draws from it — a span's outcome, a provenance entry's, a run
// report's, a wide event's ("ok" being the only one sampling may drop).
const (
	OutcomeOK = "ok"
	// OutcomeDegraded: completed short of something — a request or job
	// answered without the learned matcher.
	OutcomeDegraded = "degraded"
	OutcomeAborted  = "aborted" // the stage, and so the run, a failure stopped at
	OutcomeResumed  = "resumed" // restored from a checkpoint: an earlier run did the work
	// OutcomeDegradedQuality: the quality stage of a monitored run whose
	// live profile drifted past the thresholds against its baseline; the
	// run completed, its training-time accuracy claim needs another look.
	OutcomeDegradedQuality = "degraded_quality"

	OutcomeShed       = "shed"        // 429: admission or job queue full
	OutcomeDraining   = "draining"    // 503 while the server drains
	OutcomeTimeout    = "timeout"     // 504: request deadline exceeded
	OutcomeError      = "error"       // 5xx other than the above
	OutcomeBadRequest = "bad_request" // 4xx client errors
	OutcomeStreamCut  = "stream_cut"  // result stream cut mid-flight (slow reader / disconnect)

	// How a job's execution span ended short of completion.
	OutcomeInterrupted = "interrupted" // drain or shutdown; committed shards are durable
	OutcomeFailed      = "failed"      // a store failure or an impossible shard count
)
