package umetrics

import (
	"context"
	"fmt"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/feature"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// This file makes the case study resumable. Each expensive section
// (blocking through estimating) is a durable step (ckpt.Do) over an
// optional ckpt.Store; a later run over the same Config restores the
// section's outputs — after bounds and consistency validation — instead
// of recomputing them. generate and preprocess are always replayed
// (they are pure functions of Params and Seed, and every restored
// artifact is expressed as row indices into the tables they rebuild);
// refining is always replayed because it produces the final report and
// deliverables from restored state.
//
// No random-stream position needs a checkpoint: each section that draws
// randomness seeds a generator of its own from Config.Seed (the offsets
// are listed there), so a restored section leaves no stream behind for a
// later one to continue.

// labelArt is one labeled pair in labeling order (the store's insertion
// order is semantically significant: training sets are built in it).
type labelArt struct {
	Pair  [2]int `json:"pair"`
	Label int    `json:"label"`
}

// resultArt serializes the candidate sets of one workflow result as row
// index pairs.
type resultArt struct {
	Sure       [][2]int `json:"sure"`
	Candidates [][2]int `json:"candidates"`
	Learned    [][2]int `json:"learned"`
	Final      [][2]int `json:"final"`
}

// evalArt is one element of the labeled estimation sample.
type evalArt struct {
	Slice int    `json:"slice"`
	Pair  [2]int `json:"pair"`
	Label int    `json:"label"`
}

// sectionArt is the on-disk form of one section checkpoint: the report
// accumulated so far and the section's live state.
type sectionArt struct {
	Section string  `json:"section"`
	Report  *Report `json:"report"`

	// blocking
	Cand [][2]int `json:"cand,omitempty"`
	// labeling
	Labels []labelArt `json:"labels,omitempty"`
	// matching
	Fig8 *resultArt `json:"fig8,omitempty"`
	// updating
	Winner string     `json:"winner,omitempty"`
	Res1   *resultArt `json:"res1,omitempty"`
	Res2   *resultArt `json:"res2,omitempty"`
	// estimating
	Eval  []evalArt `json:"eval,omitempty"`
	Iris1 [][2]int  `json:"iris1,omitempty"`
	Iris2 [][2]int  `json:"iris2,omitempty"`
}

func newResultArt(res *workflow.Result) *resultArt {
	return &resultArt{
		Sure:       block.EncodePairs(res.Sure.Pairs()),
		Candidates: block.EncodePairs(res.Candidates.Pairs()),
		Learned:    block.EncodePairs(res.Learned.Pairs()),
		Final:      block.EncodePairs(res.Final.Pairs()),
	}
}

// artDecoder decodes the parts of a section artifact against the tables
// they index, bounds-checking everything and keeping the first error:
// nothing a checkpoint holds is trusted before it has been through here.
type artDecoder struct{ err error }

func (d *artDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *artDecoder) set(what string, pairs [][2]int, left, right *table.Table) *block.CandidateSet {
	cs, err := block.DecodePairs(pairs, left, right)
	if err != nil {
		d.fail("%s: %w", what, err)
	}
	return cs
}

func (d *artDecoder) pair(what string, p [2]int, left, right *table.Table) block.Pair {
	d.set(what, [][2]int{p}, left, right)
	return block.Pair{A: p[0], B: p[1]}
}

func (d *artDecoder) label(what string, l int) label.Label {
	switch label.Label(l) {
	case label.Yes, label.No, label.Unsure:
	default:
		d.fail("%s %d out of range", what, l)
	}
	return label.Label(l)
}

func (d *artDecoder) result(what string, a *resultArt, left, right *table.Table) *workflow.Result {
	if a == nil {
		d.fail("%s result missing", what)
		return nil
	}
	return &workflow.Result{
		Sure:       d.set(what+".sure", a.Sure, left, right),
		Candidates: d.set(what+".candidates", a.Candidates, left, right),
		Learned:    d.set(what+".learned", a.Learned, left, right),
		Final:      d.set(what+".final", a.Final, left, right),
		Log:        &workflow.Log{},
	}
}

// section is one row of the study: the live computation and, for the
// five sections worth a checkpoint, what the durable step needs to know
// about it. A row without a snapshot is always replayed.
type section struct {
	name string
	run  func(*study, context.Context) error
	// snapshot fills in the section's own fields of its artifact.
	snapshot func(*study, *sectionArt)
	// decode bounds-checks those fields against the replayed tables; the
	// study is untouched until the install it returns runs.
	decode func(*study, *sectionArt, *artDecoder) (install func())
	// rebuild reconstructs the derived state no checkpoint carries
	// (feature sets, imputers, fitted matchers) when this is the last
	// section restored before a live one.
	rebuild func(*study) error
}

// artifact is the section's name inside the study's run store.
func (sec *section) artifact() string { return "study." + sec.name + ".json" }

// sections is the case study, in order. generate and preprocess are pure
// functions of Params and Seed and refining assembles the report from
// whatever state precedes it, so those three carry no checkpoint.
var sections = []section{
	{name: "generate", run: (*study).generate},     // Sections 3-4
	{name: "preprocess", run: (*study).preprocess}, // Sections 5-6
	{
		name: "blocking", run: (*study).blocking, // Section 7
		snapshot: func(s *study, art *sectionArt) { art.Cand = block.EncodePairs(s.cand.Pairs()) },
		decode: func(s *study, art *sectionArt, d *artDecoder) func() {
			cand := d.set("cand", art.Cand, s.proj.UMETRICS, s.proj.USDA)
			return func() { s.cand = cand }
		},
	},
	{
		name: "labeling", run: (*study).labeling, // Section 8
		snapshot: func(s *study, art *sectionArt) {
			for _, p := range s.labels.Pairs() {
				art.Labels = append(art.Labels, labelArt{Pair: [2]int{p.A, p.B}, Label: int(s.labels.Get(p))})
			}
		},
		decode: func(s *study, art *sectionArt, d *artDecoder) func() {
			// Set on a fresh store in artifact order reproduces the original
			// labeling order exactly.
			labels := label.NewStore()
			for _, l := range art.Labels {
				_ = labels.Set(d.pair("label", l.Pair, s.proj.UMETRICS, s.proj.USDA), d.label("label", l.Label))
			}
			return func() { s.labels = labels }
		},
	},
	{
		name: "matching", run: (*study).matching, // Section 9 (Figure 8)
		snapshot: func(s *study, art *sectionArt) { art.Fig8 = newResultArt(s.fig8) },
		decode: func(s *study, art *sectionArt, d *artDecoder) func() {
			fig8 := d.result("fig8", art.Fig8, s.proj.UMETRICS, s.proj.USDA)
			return func() { s.fig8 = fig8 }
		},
		rebuild: (*study).rebuildFeatures,
	},
	{
		name: "updating", run: (*study).updating, // Section 10 (Figure 9)
		snapshot: func(s *study, art *sectionArt) {
			art.Winner, art.Res1, art.Res2 = s.winner, newResultArt(s.res1), newResultArt(s.res2)
		},
		decode: func(s *study, art *sectionArt, d *artDecoder) func() {
			if _, err := ml.FactoryByName(art.Winner, s.cfg.Seed); err != nil {
				d.fail("winner: %w", err)
			}
			res1 := d.result("res1", art.Res1, s.proj.UMETRICS, s.proj.USDA)
			res2 := d.result("res2", art.Res2, s.extra.UMETRICS, s.extra.USDA)
			return func() { s.winner, s.res1, s.res2 = art.Winner, res1, res2 }
		},
		rebuild: (*study).rebuildMatcher,
	},
	{
		name: "estimating", run: (*study).estimating, // Section 11
		snapshot: func(s *study, art *sectionArt) {
			art.Iris1 = block.EncodePairs(s.iris1.Pairs())
			art.Iris2 = block.EncodePairs(s.iris2.Pairs())
			for _, it := range s.eval {
				art.Eval = append(art.Eval, evalArt{Slice: it.slice, Pair: [2]int{it.pair.A, it.pair.B}, Label: int(it.label)})
			}
		},
		decode: func(s *study, art *sectionArt, d *artDecoder) func() {
			slices := []*Projected{s.proj, s.extra}
			iris1 := d.set("iris1", art.Iris1, s.proj.UMETRICS, s.proj.USDA)
			iris2 := d.set("iris2", art.Iris2, s.extra.UMETRICS, s.extra.USDA)
			var eval []evalItem
			for _, it := range art.Eval {
				if it.Slice < 0 || it.Slice >= len(slices) {
					d.fail("eval slice %d out of range", it.Slice)
					break
				}
				on := slices[it.Slice]
				eval = append(eval, evalItem{
					slice: it.Slice,
					pair:  d.pair("eval", it.Pair, on.UMETRICS, on.USDA),
					label: d.label("eval label", it.Label),
				})
			}
			return func() { s.iris1, s.iris2, s.eval = iris1, iris2, eval }
		},
		rebuild: (*study).rebuildMatcher,
	},
	{name: "refining", run: (*study).refining}, // Section 12 (Figure 10)
}

// snapshot is the artifact of a section that has just run: the report
// accumulated so far and the section's own state.
func (s *study) snapshot(sec *section) sectionArt {
	art := sectionArt{Section: sec.name, Report: s.report}
	sec.snapshot(s, &art)
	return art
}

// restore is the study's validator for the durable step. It condemns an
// artifact that is not this section's or indexes outside the replayed
// tables; accepting installs the section's state and report.
func (s *study) restore(sec *section, art *sectionArt) error {
	if art.Section != sec.name {
		return fmt.Errorf("artifact is for section %q, not %q", art.Section, sec.name)
	}
	if art.Report == nil {
		return fmt.Errorf("artifact has no report")
	}
	var d artDecoder
	install := sec.decode(s, art, &d)
	if d.err != nil {
		return d.err
	}
	install()
	*s.report = *art.Report
	return nil
}

// rebuildFeatures regenerates the feature set with the case-insensitive
// extension of Section 9, which must be present before any further
// training or deployment packaging. Like rebuildMatcher it is a
// deterministic function of restored state, so the rebuilt object is
// byte-equivalent to the one the original run held.
func (s *study) rebuildFeatures() error {
	corr, order := FeatureColumns()
	fs, err := feature.Generate(s.proj.UMETRICS, s.proj.USDA, corr, order)
	if err != nil {
		return err
	}
	if err := feature.AddCaseInsensitive(fs, s.proj.UMETRICS, corr,
		[]string{"AwardTitle", "EmployeeName"}); err != nil {
		return err
	}
	s.features = fs
	return nil
}

// rebuildMatcher refits the Section 10 winner on the deterministic
// training set over rebuilt features; this also restores s.imputer and
// s.lastTrain, which refining's deployment packaging needs.
func (s *study) rebuildMatcher() error {
	if err := s.rebuildFeatures(); err != nil {
		return err
	}
	ds, _, im, err := s.trainingSet(9)
	if err != nil {
		return err
	}
	s.lastTrain = ds
	return s.train(s.winner, ds, im)
}

// streamScheme names how the study seeds its random streams. A store
// written under another scheme holds samples no run of this one draws,
// so the token is part of the fingerprint: change it whenever a section's
// seed offset or draw order changes.
const streamScheme = "streams=seed+section"

// Fingerprint returns the checkpoint-store fingerprint for this
// configuration: any change to the generator parameters, seed, round
// plan, expert noise or stream scheme invalidates every checkpoint. The
// expert's noise rates are constants but stay in the text: dropping them
// would change every fingerprint and orphan the stores already written.
func (c Config) Fingerprint() string {
	return ckpt.Fingerprint(
		"umetrics.casestudy",
		streamScheme,
		fmt.Sprintf("%+v", c.Params),
		fmt.Sprintf("seed=%d rounds=%v est=%v hes=%g mis=%g",
			c.Seed, c.SampleRounds, c.EstimateRounds, expertHesitateRate, expertMistakeRate),
	)
}
