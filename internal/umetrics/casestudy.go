package umetrics

import (
	"context"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/cluster"
	"emgo/internal/core"
	"emgo/internal/estimate"
	"emgo/internal/label"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/profile"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// Config drives an end-to-end case-study run.
type Config struct {
	// Params configures the synthetic data generator.
	Params Params
	// Seed drives every downstream random choice. Each section that
	// draws randomness seeds its own stream from it: Seed for the
	// Section 8 labelling samples, Seed+1 for the simulated expert and
	// Seed+3 for the Section 11 evaluation sample. The learners' CV folds
	// and forests take Seed.
	Seed int64
	// SampleRounds are the per-iteration labeling sample sizes of Section
	// 8 (the paper used three rounds of 100).
	SampleRounds []int
	// EstimateRounds are the Section 11 evaluation sample sizes (the
	// paper used two rounds of 200).
	EstimateRounds []int
}

// DefaultConfig returns the full-scale configuration mirroring the paper.
// The matching tables (AwardAgg, USDA, the extra slice) are at the exact
// Figure 2 sizes; the auxiliary tables are kept compact because the
// pipeline only reads the distinct award/employee pairs out of them — use
// PaperParams directly when the full 1.45M-row employees table itself is
// the object of study (the Figure 2 experiment).
func DefaultConfig() Config {
	p := PaperParams()
	p.EmployeeRows = 0 // one row per award-employee pair
	p.VendorRows = 2000
	p.SubAwardRows = 2000
	return Config{
		Params:         p,
		Seed:           7,
		SampleRounds:   []int{100, 100, 100},
		EstimateRounds: []int{200, 200},
	}
}

// TestConfig returns a scaled-down configuration for tests.
func TestConfig(scale float64) Config {
	c := DefaultConfig()
	c.Params = TestParams(scale)
	round := int(100 * scale)
	if round < 20 {
		round = 20
	}
	c.SampleRounds = []int{round, round, round}
	est := int(200 * scale)
	if est < 40 {
		est = 40
	}
	c.EstimateRounds = []int{est, est}
	return c
}

// TableStat is one Figure 2 row.
type TableStat struct {
	Name string
	Rows int
	Cols int
}

// Report collects every number the paper walks through, section by
// section.
type Report struct {
	// Section 4 (Figure 2).
	TableStats []TableStat

	// Section 6.
	Preprocess *PreprocessReport
	// VendorOrgOverlap is the Section 6 step-3 check: the number of
	// distinct vendor OrgName values shared with USDA's
	// RecipientOrganization (zero — which is why the vendor table was
	// ruled out for matching).
	VendorOrgOverlap  int
	VendorDUNSOverlap int

	// Section 7.
	CartesianPairs int
	C1, C2, C3     int
	C2AndC3        int
	C2MinusC3      int
	C3MinusC2      int
	ConsolidatedC  int
	OverlapSweep   map[int]int // overlap threshold K -> candidate count
	// DebuggerTop is how many excluded pairs the blocking debugger
	// returned; DebuggerMatchesTop10 counts true matches among the
	// highest-ranked ten (the pairs a user actually eyeballs — the paper
	// found none and concluded blocking was fine), and DebuggerMatches
	// counts true matches anywhere in the list (nonzero here is the
	// silent blocking loss that Section 10 later uncovers).
	DebuggerTop          int
	DebuggerMatchesTop10 int
	DebuggerMatches      int

	// Section 8.
	RoundCounts    []label.Counts // cumulative after each sampling round
	CrossMismatch  int            // labeler cross-check disagreements
	CrossFlipped   int            // labels revised after the meeting
	LOOCVFlagged   int            // pairs flagged by leave-one-out debug
	LabelRevisions int            // labels revised after D1-D3 discussion
	FinalLabels    label.Counts   // the 300-pair analog

	// Section 9.
	CVInitial   []ml.CVResult // before case-insensitive features
	CVWithCase  []ml.CVResult // after the debugging fix
	BestInitial string
	BestFinal   string
	M1InC       int // sure (M1) pairs inside C
	LearnedFig8 int // matcher predictions on C minus sure
	TotalFig8   int // Figure 8 total matches

	// Section 10 — the "Should We Match at the Cluster Level?" analysis
	// the EM team shared: how many predictions are one-to-one vs
	// one-to-many vs many-to-one, and how many entity clusters the final
	// match set forms.
	MatchDegrees   cluster.DegreeStats
	EntityClusters int

	Rule2Cartesian  int // pairs satisfying the project-number rule overall
	Rule2InC        int // ... of which blocking kept
	Rule2Predicted  int // ... of which the Fig-8 matcher already predicted
	SureOriginal    int // C1 of Figure 9
	SureExtra       int // D1
	CandOriginal    int // C of Figure 9
	CandExtra       int // D
	LearnedOriginal int // R1
	LearnedExtra    int // R2
	TotalFig9       int

	// Section 11.
	EstOursFirst estimate.Estimate // learning workflow, first round
	EstIRISFirst estimate.Estimate
	EstOursAll   estimate.Estimate // after all estimate rounds
	EstIRISAll   estimate.Estimate
	EvalLabels   label.Counts // composition of the evaluation sample
	IRISOutsideE int          // IRIS pairs outside the consolidated set

	// Section 12.
	VetoedOriginal int
	VetoedExtra    int
	FinalMatches   int
	EstFinal       estimate.Estimate

	// Gold (generator ground truth) confusions for validation; the paper
	// could not compute these, we can.
	GoldIRIS  ml.Confusion
	GoldFig8  ml.Confusion
	GoldFig9  ml.Confusion
	GoldFinal ml.Confusion

	// The final deliverable: matches as ID pairs.
	Matches []workflow.IDPair
	// Deployment is the packaged Figure 10 workflow (Section 12 "Next
	// Steps"): serialize it, ship it, and rebuild it on new data slices
	// with DeployTransforms.
	Deployment *workflow.Spec
	// LabeledPairs is the released labeled data — the paper's "we provide
	// all data underlying this case study, including all the labeled
	// tuple pairs" contribution. It contains the Section 8 training
	// labels and the Section 11 evaluation labels, at the business-key
	// level.
	LabeledPairs []LabeledPair
}

// LabeledPair is one released labeled record pair.
type LabeledPair struct {
	UAN       string // UMETRICS UniqueAwardNumber
	Accession string // USDA AccessionNumber
	Label     label.Label
	// Phase is "training" (Section 8) or "evaluation" (Section 11).
	Phase string
}

// study carries the mutable state of a run.
type study struct {
	cfg    Config
	ds     *Dataset
	proj   *Projected // original slice
	extra  *Projected // extra slice (shares the USDA table)
	oracle *TruthOracle
	extOra *TruthOracle
	expert *label.Expert
	report *Report

	// loop is the development loop over the original slice: its
	// candidate set, labels, features and matcher.
	loop *core.Project

	fig8         *workflow.Result
	res1, res2   *workflow.Result    // Figure 9 results per slice
	iris1, iris2 *block.CandidateSet // IRIS predictions per slice
	eval         []evalItem          // the labeled estimation sample
}

// Run executes the whole case study and returns the report.
func Run(cfg Config) (*Report, error) {
	return RunCtxStudy(context.Background(), cfg)
}

// section is one row of the study: a name, which is also its span's, and
// the computation.
type section struct {
	name string
	run  func(*study, context.Context) error
}

// sections is the case study, in order.
var sections = []section{
	{"generate", (*study).generate},     // Sections 3-4
	{"preprocess", (*study).preprocess}, // Sections 5-6
	{"blocking", (*study).blocking},     // Section 7
	{"labeling", (*study).labeling},     // Section 8
	{"matching", (*study).matching},     // Section 9 (Figure 8)
	{"updating", (*study).updating},     // Section 10 (Figure 9)
	{"estimating", (*study).estimating}, // Section 11
	{"refining", (*study).refining},     // Section 12 (Figure 10)
}

// RunCtxStudy is Run under a context: when ctx carries an obs trace
// (emcasestudy's -report flag opens one), each case-study
// section runs inside a "casestudy.<section>" span, so a trace of the
// full end-to-end run shows where the wall time went; cancellation is
// checked between sections.
func RunCtxStudy(ctx context.Context, cfg Config) (*Report, error) {
	s := &study{cfg: cfg, report: &Report{OverlapSweep: make(map[int]int)}}
	for _, sec := range sections {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sctx, sp := obs.StartSpan(ctx, "casestudy."+sec.name)
		err := sec.run(s, sctx)
		if err != nil {
			sp.SetOutcome(obs.OutcomeAborted)
		} else {
			sp.SetOutcome(obs.OutcomeOK)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return s.report, nil
}

// generate builds the raw data and the Figure 2 statistics.
func (s *study) generate(context.Context) error {
	ds, err := Generate(s.cfg.Params)
	if err != nil {
		return err
	}
	s.ds = ds
	for _, t := range []*table.Table{
		ds.AwardAgg, ds.Employees, ds.ObjectCodes, ds.OrgUnits, ds.SubAward, ds.Vendor, ds.USDA,
	} {
		s.report.TableStats = append(s.report.TableStats, TableStat{
			Name: t.Name(), Rows: t.Len(), Cols: t.Schema().Len(),
		})
	}
	return nil
}

// The simulated expert's first-pass labelling noise: it labels a true
// match Unsure at expertHesitateRate and flips a label at
// expertMistakeRate.
const (
	expertHesitateRate = 0.3
	expertMistakeRate  = 0.04
)

// preprocess runs the Section 6 pipeline on both slices. ProjectNumber is
// joined in up front (the paper discovered the need in Section 10; the
// chronology numbers are still reported there).
func (s *study) preprocess(context.Context) error {
	// Section 6 step 3: do the remaining tables share information with
	// the USDA table? Vendor org names and DUNS do not overlap, so the
	// vendor table is ruled out for matching.
	shared, _, _, err := profile.ValueOverlap(s.ds.Vendor, "OrgName", s.ds.USDA, "RecipientOrganization")
	if err != nil {
		return err
	}
	s.report.VendorOrgOverlap = shared
	shared, _, _, err = profile.ValueOverlap(s.ds.Vendor, "DUNS", s.ds.USDA, "RecipientDUNS")
	if err != nil {
		return err
	}
	s.report.VendorDUNSOverlap = shared

	if s.proj, s.extra, s.report.Preprocess, err = slices(s.ds); err != nil {
		return err
	}
	if s.oracle, err = NewTruthOracle(s.ds.Truth, s.proj.UMETRICS, s.proj.USDA); err != nil {
		return err
	}
	if s.extOra, err = NewTruthOracle(s.ds.Truth, s.extra.UMETRICS, s.proj.USDA); err != nil {
		return err
	}
	s.expert = &label.Expert{
		Truth:        s.oracle.IsMatch,
		Hard:         s.oracle.IsHard,
		HesitateRate: expertHesitateRate,
		MistakeRate:  expertMistakeRate,
		// Lookalike (trap) pairs draw the Section 8 waffling: mostly
		// Unsure on first pass, resolved to the truth only after the
		// D2 discussion.
		Tricky:           s.oracle.IsTrap,
		TrickyUnsureRate: 0.7,
		TrickyWrongRate:  0.1,
		Rng:              rand.New(rand.NewSource(s.cfg.Seed + 1)),
	}
	return nil
}

// slices preprocesses the original slice, with ProjectNumber joined in,
// and the extra slice. The extra slice shares the original's USDA side
// and grouped employee names, so their candidate sets stay comparable.
func slices(ds *Dataset) (proj, extra *Projected, rep *PreprocessReport, err error) {
	proj, rep, grouped, err := preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		return nil, nil, nil, err
	}
	if err = AddProjectNumber(proj, ds.USDA); err != nil {
		return nil, nil, nil, err
	}
	extra = &Projected{USDA: proj.USDA}
	if extra.UMETRICS, err = projectUMETRICS(ds.ExtraAwardAgg, grouped, "x"); err != nil {
		return nil, nil, nil, err
	}
	return proj, extra, rep, nil
}

// blocking reproduces the Section 7 numbers over the original slice and
// starts the development loop there, with Figure 8's blockers and M1.
func (s *study) blocking(ctx context.Context) error {
	um, us := s.proj.UMETRICS, s.proj.USDA
	s.report.CartesianPairs = um.Len() * us.Len()

	// The pipeline is Figure 8's: C1, C2 and C3. The threshold sweep of
	// Section 7 step 2 ("the threshold of 1 resulted in 200K record pairs,
	// and a threshold of 7 in a few hundred") reruns C2 at other K. All of
	// it is over USDA's titles: bound together, the table is tokenised and
	// indexed once for the lot.
	sweepK := []int{1, 3, 7}
	spec := FigureSpec(8)
	pipeline := len(spec.Blockers)
	for _, k := range sweepK {
		c2 := spec.Blockers[1]
		c2.Threshold = k
		spec.Blockers = append(spec.Blockers, c2)
	}
	w, err := spec.Build(um, us, DeployTransforms())
	if err != nil {
		return err
	}
	all, err := block.Bind(ctx, us, w.Blockers...)
	if err != nil {
		return err
	}
	bs, sweep := all[:pipeline], all[pipeline:]
	c1, err := bs[0].Block(ctx, um, us)
	if err != nil {
		return err
	}
	c2, err := bs[1].Block(ctx, um, us)
	if err != nil {
		return err
	}
	c3, err := bs[2].Block(ctx, um, us)
	if err != nil {
		return err
	}
	s.report.C1, s.report.C2, s.report.C3 = c1.Len(), c2.Len(), c3.Len()
	inter, err := c2.Intersect(c3)
	if err != nil {
		return err
	}
	s.report.C2AndC3 = inter.Len()
	s.report.C2MinusC3 = c2.Len() - inter.Len()
	s.report.C3MinusC2 = c3.Len() - inter.Len()

	if s.loop, err = core.NewProject("umetrics", um, us, s.cfg.Seed); err != nil {
		return err
	}
	for _, b := range bs {
		s.loop.AddBlocker(b)
	}
	for _, r := range w.SureRules.Rules() {
		s.loop.AddSureRule(r)
	}
	// The consolidated set is the union of the three already blocked, in
	// the blocker-major order UnionBlockCtx grows: C1, then C2's pairs C1
	// lacks, then C3's that neither holds. C1 ∪ (C2 ∪ C3) is that order,
	// and asks only the ascending C1 and C2, never an unordered union
	// that would need an index.
	rest, err := c2.Union(c3)
	if err != nil {
		return err
	}
	cand, err := c1.Union(rest)
	if err != nil {
		return err
	}
	if err := s.loop.SetCandidates(cand); err != nil {
		return err
	}
	s.report.ConsolidatedC = cand.Len()

	for n, k := range sweepK {
		ck, err := sweep[n].Block(ctx, um, us)
		if err != nil {
			return err
		}
		s.report.OverlapSweep[k] = ck.Len()
	}

	// Blocking debugger: the top-ranked excluded pairs should contain no
	// true matches (the Section 7 stopping criterion).
	top, err := s.loop.DebugBlocking(map[string]string{"AwardTitle": "AwardTitle"}, 100)
	if err != nil {
		return err
	}
	s.report.DebuggerTop = len(top)
	for i, dp := range top {
		if s.oracle.IsMatch(dp.Pair) {
			s.report.DebuggerMatches++
			if i < 10 {
				s.report.DebuggerMatchesTop10++
			}
		}
	}
	return nil
}

// labeling reproduces Section 8: iterative sampling, the cross-check
// episode, and leave-one-out label debugging.
func (s *study) labeling(ctx context.Context) error {
	labels := s.loop.Labels()
	tool := label.NewTool(labels)

	for round, n := range s.cfg.SampleRounds {
		sample, err := s.loop.SamplePairs(n)
		if err != nil {
			return err
		}
		tool.Upload(sample)
		if err := tool.OpenSession("umetrics-student"); err != nil {
			return err
		}
		if err := tool.LabelAll("umetrics-student", s.expert.Label); err != nil {
			return err
		}
		if err := tool.CloseSession("umetrics-student"); err != nil {
			return err
		}

		// Round 1: the EM team labels the same pairs independently and
		// the two label sets are cross-checked; disagreements are
		// discussed and some labels flipped (the 22-mismatch episode).
		if round == 0 {
			emTeam := label.NewStore()
			for _, p := range sample {
				var l label.Label
				if s.oracle.IsHard(p) || s.oracle.IsTrap(p) {
					// Lookalikes are ambiguous to the EM team too; they
					// stay Unsure until the D2 discussion much later.
					l = label.Unsure
				} else {
					l = s.expert.TruthLabel(p)
				}
				if err := emTeam.Set(p, l); err != nil {
					return err
				}
			}
			mismatches := label.CrossCheck(labels, emTeam)
			s.report.CrossMismatch = len(mismatches)
			for _, p := range mismatches {
				revised := s.expert.Revise(p)
				if revised != labels.Get(p) {
					s.report.CrossFlipped++
					if err := labels.Set(p, revised); err != nil {
						return err
					}
				}
			}
		}
		s.report.RoundCounts = append(s.report.RoundCounts, labels.Counts())
	}

	// Label debugging with leave-one-out cross-validation (minus unsure
	// and sure matches, so over the features Section 9 trains on), then
	// the D1-D3 revision meeting.
	if err := s.loop.GenerateFeatures(FeatureColumns()); err != nil {
		return err
	}
	flagged, err := s.loop.DebugLabels(ctx)
	if err != nil {
		return err
	}
	s.report.LOOCVFlagged = len(flagged)
	for _, p := range flagged {
		revised := s.expert.Revise(p)
		if revised != labels.Get(p) {
			s.report.LabelRevisions++
			if err := labels.Set(p, revised); err != nil {
				return err
			}
		}
	}
	s.report.FinalLabels = labels.Counts()
	return nil
}
