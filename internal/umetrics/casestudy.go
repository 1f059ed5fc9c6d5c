package umetrics

import (
	"context"
	"errors"
	"math/rand"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/cluster"
	"emgo/internal/core"
	"emgo/internal/estimate"
	"emgo/internal/feature"
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
	// Section 8 labelling samples, Seed+1 for the simulated expert,
	// Seed+2 for the Section 9 split debug and Seed+3 for the Section 11
	// evaluation sample. The learners' CV folds and forests take Seed.
	Seed int64
	// SampleRounds are the per-iteration labeling sample sizes of Section
	// 8 (the paper used three rounds of 100).
	SampleRounds []int
	// EstimateRounds are the Section 11 evaluation sample sizes (the
	// paper used two rounds of 200).
	EstimateRounds []int
	// Checkpoints, when set, makes the run crash-safe: each section
	// writes its outputs to the store, and a later run over the same
	// Config (open the store with Config.Fingerprint) resumes from the
	// last durable section instead of starting over. Nil disables
	// checkpointing entirely.
	Checkpoints *ckpt.Store `json:"-"`
	// haltAfter stops the run with errHalted right after the named
	// section checkpoints — the test hook simulating a crash at a
	// section boundary without killing the process.
	haltAfter string
}

// errHalted is returned when the haltAfter test hook stops a run.
var errHalted = errors.New("umetrics: run halted by test hook")

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

	cand     *block.CandidateSet // consolidated C over the original slice
	labels   *label.Store
	features *feature.Set
	imputer  *feature.Imputer
	matcher  ml.Matcher
	winner   string // CV winner name behind the final matcher

	fig8         *workflow.Result
	res1, res2   *workflow.Result    // Figure 9 results per slice
	iris1, iris2 *block.CandidateSet // IRIS predictions per slice
	eval         []evalItem          // the labeled estimation sample
	lastTrain    *ml.Dataset         // the training set behind the final matcher
}

// Run executes the whole case study and returns the report.
func Run(cfg Config) (*Report, error) {
	return RunCtxStudy(context.Background(), cfg)
}

// RunCtxStudy is Run under a context: when ctx carries an obs trace
// (emcasestudy's -trace/-report flags open one), each case-study
// section runs inside a "casestudy.<section>" span, so a trace of the
// full end-to-end run shows where the wall time went; cancellation is
// checked between sections.
//
// With cfg.Checkpoints set, each section's outputs are persisted after
// it completes and restored — validated — on the next run, so a killed
// run resumes from its last durable section. Restored sections
// get span outcome "resumed"; any checkpoint that cannot be trusted is
// quarantined and the section recomputed.
func RunCtxStudy(ctx context.Context, cfg Config) (*Report, error) {
	s := &study{cfg: cfg, report: &Report{OverlapSweep: make(map[int]int)}}
	// pending is the most recently restored section whose derived state
	// has not been rebuilt yet; it is rebuilt lazily right before the next
	// live section.
	var pending *section
	for i := range sections {
		sec := &sections[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sctx, sp := obs.StartSpan(ctx, "casestudy."+sec.name)
		store := cfg.Checkpoints
		if sec.snapshot == nil {
			store = nil
		}
		resumed, note, err := ckpt.Do(store, sec.artifact(),
			func(art *sectionArt) error { return s.restore(sec, art) },
			func() error {
				if pending != nil && pending.rebuild != nil {
					if err := pending.rebuild(s); err != nil {
						return err
					}
				}
				pending = nil
				return sec.run(s, sctx)
			},
			func() sectionArt { return s.snapshot(sec) })
		if note != "" {
			sp.Event("ckpt", note)
		}
		switch {
		case err != nil:
			sp.SetOutcome(obs.OutcomeAborted)
		case resumed:
			pending = sec
			sp.SetOutcome(obs.OutcomeResumed)
		default:
			sp.SetOutcome(obs.OutcomeOK)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		if !resumed && cfg.haltAfter == sec.name {
			return nil, errHalted
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
// and the extra slice. Both share one USDA table object so their
// candidate sets stay comparable.
func slices(ds *Dataset) (proj, extra *Projected, rep *PreprocessReport, err error) {
	if proj, rep, err = Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s"); err != nil {
		return nil, nil, nil, err
	}
	if err = AddProjectNumber(proj, ds.USDA); err != nil {
		return nil, nil, nil, err
	}
	if extra, _, err = Preprocess(ds.ExtraAwardAgg, ds.Employees, ds.USDA, "x", "s"); err != nil {
		return nil, nil, nil, err
	}
	extra.USDA = proj.USDA
	return proj, extra, rep, nil
}

// build builds spec over one slice and gives it the study's learned
// matcher: the full feature set the study trains on, its imputer, and m.
func (s *study) build(spec *workflow.Spec, um *Projected, m ml.Matcher) (*workflow.Workflow, error) {
	w, err := spec.Build(um.UMETRICS, um.USDA, DeployTransforms())
	if err != nil {
		return nil, err
	}
	w.Features, w.Imputer, w.Matcher = s.features, s.imputer, m
	return w, nil
}

// blocking reproduces the Section 7 numbers over the original slice.
func (s *study) blocking(context.Context) error {
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
	w, err := s.build(spec, s.proj, nil)
	if err != nil {
		return err
	}
	all, err := block.Bind(context.TODO(), us, w.Blockers...)
	if err != nil {
		return err
	}
	bs, sweep := all[:pipeline], all[pipeline:]
	c1, err := bs[0].Block(um, us)
	if err != nil {
		return err
	}
	c2, err := bs[1].Block(um, us)
	if err != nil {
		return err
	}
	c3, err := bs[2].Block(um, us)
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

	cand, err := block.UnionBlock(um, us, bs...)
	if err != nil {
		return err
	}
	s.cand = cand
	s.report.ConsolidatedC = cand.Len()

	for n, k := range sweepK {
		ck, err := sweep[n].Block(um, us)
		if err != nil {
			return err
		}
		s.report.OverlapSweep[k] = ck.Len()
	}

	// Blocking debugger: the top-ranked excluded pairs should contain no
	// true matches (the Section 7 stopping criterion).
	top, err := block.Debugger{
		Cols: map[string]string{"AwardTitle": "AwardTitle"},
		K:    100,
	}.Run(cand)
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
	s.labels = label.NewStore()
	tool := label.NewTool(s.labels)
	rng := rand.New(rand.NewSource(s.cfg.Seed))

	for round, n := range s.cfg.SampleRounds {
		sample, err := core.SampleUnlabelled(s.cand, s.labels, n, rng)
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
			mismatches := label.CrossCheck(s.labels, emTeam)
			s.report.CrossMismatch = len(mismatches)
			for _, p := range mismatches {
				revised := s.expert.Revise(p)
				if revised != s.labels.Get(p) {
					s.report.CrossFlipped++
					if err := s.labels.Set(p, revised); err != nil {
						return err
					}
				}
			}
		}
		s.report.RoundCounts = append(s.report.RoundCounts, s.labels.Counts())
	}

	// Label debugging with leave-one-out cross-validation (minus unsure
	// and sure matches), then the D1-D3 revision meeting.
	ds, pairs, _, err := s.trainingSet(8)
	if err != nil {
		return err
	}
	if ds.Len() >= 2 {
		flagged, err := core.FlagLabels(ctx, ds, pairs, s.cfg.Seed)
		if err != nil {
			return err
		}
		s.report.LOOCVFlagged = len(flagged)
		for _, p := range flagged {
			revised := s.expert.Revise(p)
			if revised != s.labels.Get(p) {
				s.report.LabelRevisions++
				if err := s.labels.Set(p, revised); err != nil {
					return err
				}
			}
		}
	}
	s.report.FinalLabels = s.labels.Counts()
	return nil
}

// trainingSet is core.TrainingData over the original slice with the
// sure rules of Figure fig (Section 9: "we removed the pairs labeled
// Unsure and sure matches") — M1 alone in Figure 8, with the rule Section
// 10 discovered in Figure 9.
func (s *study) trainingSet(fig int) (*ml.Dataset, []block.Pair, *feature.Imputer, error) {
	if s.features == nil {
		corr, order := FeatureColumns()
		fs, err := feature.Generate(s.proj.UMETRICS, s.proj.USDA, corr, order)
		if err != nil {
			return nil, nil, nil, err
		}
		s.features = fs
	}
	w, err := s.build(FigureSpec(fig), s.proj, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return core.TrainingData(s.proj.UMETRICS, s.proj.USDA, s.labels, w.SureRules, s.features)
}

// train fits a fresh matcher of the named kind on ds and installs it as
// the study's matcher, with im, the imputer ds was filled by.
func (s *study) train(name string, ds *ml.Dataset, im *feature.Imputer) error {
	f, err := ml.FactoryByName(name, s.cfg.Seed)
	if err != nil {
		return err
	}
	m := f.New()
	if err := m.Fit(ds); err != nil {
		return err
	}
	s.matcher, s.imputer = m, im
	return nil
}
