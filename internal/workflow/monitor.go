package workflow

import (
	"fmt"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/estimate"
	"emgo/internal/label"
)

// Monitor implements production accuracy monitoring — footnote 11 of the
// paper: "this is typically done by taking a random sample of the
// predicted matches at regular intervals, manually labeling it, then
// using the labeled sample to estimate the accuracy". Each Check draws a
// sample of the latest predicted matches, asks the labeler for labels,
// estimates precision, and raises an alarm when the interval's upper
// bound falls below the threshold — the signal to "move back to the
// development stage and update the EM workflow".
type Monitor struct {
	// SampleSize is how many predicted matches each check labels
	// (default 50).
	SampleSize int
	// MinPrecision is the alarm threshold: a check alarms when even the
	// optimistic end of the precision interval is below it.
	MinPrecision float64
	// Rng drives sampling; required.
	Rng *rand.Rand

	history []CheckResult
}

// CheckResult is one monitoring check.
type CheckResult struct {
	// Batch labels which data slice was checked (caller-supplied).
	Batch string
	// Labeled is how many matches were labeled (Unsure excluded from the
	// estimate as usual).
	Labeled int
	// Precision is the estimated precision of the predicted matches.
	Precision estimate.Interval
	// Alarm is set when Precision.Hi < MinPrecision.
	Alarm bool
}

// Check samples the predicted matches of one production batch, labels the
// sample with labelFn (the human in the loop), and records the estimated
// precision. Note that sampling predicted matches estimates precision
// only — recall needs a sample of the full candidate set, which
// production does not label.
func (m *Monitor) Check(batch string, predicted *block.CandidateSet, labelFn func(block.Pair) label.Label) (CheckResult, error) {
	if m.Rng == nil {
		return CheckResult{}, fmt.Errorf("workflow: monitor needs an Rng")
	}
	if labelFn == nil {
		return CheckResult{}, fmt.Errorf("workflow: monitor needs a labeler")
	}
	if predicted == nil {
		return CheckResult{}, fmt.Errorf("workflow: batch %q has no candidate set to monitor", batch)
	}
	n := m.SampleSize
	if n <= 0 {
		n = 50
	}
	if n > predicted.Len() {
		n = predicted.Len()
	}
	if n == 0 {
		return CheckResult{}, fmt.Errorf("workflow: batch %q has no predicted matches to monitor", batch)
	}
	sample, err := predicted.Sample(n, m.Rng)
	if err != nil {
		return CheckResult{}, err
	}
	yes, no := 0, 0
	for _, p := range sample {
		switch labelFn(p) {
		case label.Yes:
			yes++
		case label.No:
			no++
		}
	}
	pred := make([]bool, yes+no)
	labels := make([]label.Label, yes+no)
	for i := range pred {
		pred[i] = true
		if i < yes {
			labels[i] = label.Yes
		} else {
			labels[i] = label.No
		}
	}
	est, err := estimate.FromLabels(pred, labels)
	if err != nil {
		return CheckResult{}, err
	}
	res := CheckResult{
		Batch:     batch,
		Labeled:   yes + no,
		Precision: est.Precision,
		Alarm:     est.Precision.Hi < m.MinPrecision,
	}
	m.history = append(m.history, res)
	return res, nil
}

// History returns all checks in order.
func (m *Monitor) History() []CheckResult {
	out := make([]CheckResult, len(m.history))
	copy(out, m.history)
	return out
}

// Alarms returns the checks that alarmed.
func (m *Monitor) Alarms() []CheckResult {
	var out []CheckResult
	for _, r := range m.history {
		if r.Alarm {
			out = append(out, r)
		}
	}
	return out
}
