package obs

// The outcome vocabulary: how a unit of work ended. One list, and every
// record draws from it — a span's outcome, a run report's, a wide
// event's ("ok" being the only one sampling may drop).
const (
	OutcomeOK = "ok"
	// OutcomeDegraded: completed short of something — a request answered
	// without the learned matcher.
	OutcomeDegraded = "degraded"
	OutcomeAborted  = "aborted" // the stage, and so the run, a failure stopped at

	OutcomeShed       = "shed"        // 429: admission queue full
	OutcomeDraining   = "draining"    // 503 while the server drains
	OutcomeTimeout    = "timeout"     // 504: request deadline exceeded
	OutcomeError      = "error"       // 5xx other than the above
	OutcomeBadRequest = "bad_request" // 4xx client errors
)
