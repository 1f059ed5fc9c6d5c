package umetrics

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"emgo/internal/table"
)

// Params controls the synthetic generator. Counts are record/grant counts;
// the *Rows fields are exact table-size targets (Figure 2). Class counts
// must fit inside the table totals; the remainder becomes UMETRICS-only /
// USDA-only filler records.
type Params struct {
	Seed int64

	// Grant classes (each grant yields one UMETRICS record and one or
	// more USDA records).
	FederalGrants int // matched via federal award number (M1)
	StateGrants   int // matched via WIS project number (the later rule)
	TitleGrants   int // matched only via title/director similarity
	// TitleVetoFraction is the fraction of TitleGrants whose UMETRICS
	// number is a WIS number that differs from the USDA project number
	// (renumbered projects); the negative rule wrongly vetoes these.
	TitleVetoFraction float64

	// TrapFamilies is how many federal/state grants get a lookalike
	// USDA-only sibling record (near-identical title, comparable but
	// different identifier) — the learner's false-positive source, and
	// the target of the Section 12 negative rule.
	TrapFamilies int

	// TrapTitleFamilies is how many title-class grants get a lookalike
	// sibling with a far-off date range and a non-comparable identifier;
	// the negative rule cannot veto these, so they survive into the
	// final match set as its residual false positives.
	TrapTitleFamilies int

	// GenericUMETRICS / GenericUSDA are records with undecidable generic
	// titles ("Lab Supplies").
	GenericUMETRICS int
	GenericUSDA     int

	// NCNRSP is how many USDA-only records carry a matched grant's title
	// plus the "NC/NRSP" multistate suffix (the D1 pathology).
	NCNRSP int

	// Extra* describe the 496 missing records discovered in Section 10:
	// a separate UMETRICS slice whose USDA counterparts are already in
	// the USDA table.
	ExtraFederal int
	ExtraState   int

	// Exact table sizes (Figure 2).
	UMETRICSRows   int // original UMETRICSAwardAggMatching
	ExtraRows      int // the extra UMETRICS slice
	USDARows       int
	EmployeeRows   int
	VendorRows     int
	SubAwardRows   int
	ObjectCodeRows int
	OrgUnitRows    int

	// NumberNoiseRate is the probability a UMETRICS award-number suffix
	// carries formatting noise (case, stray spaces) that the IRIS
	// baseline's raw string comparison cannot handle.
	NumberNoiseRate float64
}

// PaperParams returns the full-scale parameters matching Figure 2 exactly.
func PaperParams() Params {
	return Params{
		Seed:              1,
		FederalGrants:     160,
		StateGrants:       330,
		TitleGrants:       150,
		TitleVetoFraction: 0.15,
		TrapFamilies:      280,
		TrapTitleFamilies: 25,
		GenericUMETRICS:   12,
		GenericUSDA:       13,
		NCNRSP:            15,
		ExtraFederal:      25,
		ExtraState:        12,
		UMETRICSRows:      1336,
		ExtraRows:         496,
		USDARows:          1915,
		EmployeeRows:      1454070,
		VendorRows:        377746,
		SubAwardRows:      21470,
		ObjectCodeRows:    4574,
		OrgUnitRows:       264,
		NumberNoiseRate:   0.17,
	}
}

// TestParams returns PaperParams scaled down (with compact auxiliary
// tables) for fast tests and the case-study pipeline, which does not need
// the 1.45M-row employees table — only the distinct award/employee pairs.
func TestParams(scale float64) Params {
	p := PaperParams()
	s := func(n int) int {
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	p.FederalGrants = s(p.FederalGrants)
	p.StateGrants = s(p.StateGrants)
	p.TitleGrants = s(p.TitleGrants)
	p.TrapFamilies = s(p.TrapFamilies)
	p.TrapTitleFamilies = s(p.TrapTitleFamilies)
	p.GenericUMETRICS = s(p.GenericUMETRICS)
	p.GenericUSDA = s(p.GenericUSDA)
	p.NCNRSP = s(p.NCNRSP)
	p.ExtraFederal = s(p.ExtraFederal)
	p.ExtraState = s(p.ExtraState)
	p.UMETRICSRows = s(p.UMETRICSRows)
	p.ExtraRows = s(p.ExtraRows)
	p.USDARows = s(p.USDARows)
	// Compact aux tables: enough rows for the pre-processing joins.
	p.EmployeeRows = 0 // 0 means "one row per award-employee pair"
	p.VendorRows = s(200)
	p.SubAwardRows = s(200)
	p.ObjectCodeRows = len(objectCodeTexts)
	p.OrgUnitRows = len(orgUnitNames)
	return p
}

// Dataset is the generated raw data: the seven tables of Figure 2, the
// extra UMETRICS slice of Section 10, and the ground truth.
type Dataset struct {
	AwardAgg    *table.Table
	Employees   *table.Table
	ObjectCodes *table.Table
	OrgUnits    *table.Table
	SubAward    *table.Table
	Vendor      *table.Table
	USDA        *table.Table
	// ExtraAwardAgg is the 496-record slice that was missing from
	// AwardAgg and surfaced only later (Section 10, "Handling More
	// Data").
	ExtraAwardAgg *table.Table
	Truth         *Truth
	Params        Params
}

// grant is one research grant in the synthetic world.
type grant struct {
	class     PairClass // ClassFederal, ClassState, ClassTitle, ClassTitleVeto
	words     []string  // base title tokens (lowercase)
	cfda      string
	suffix    string // UniqueAwardNumber part after the CFDA prefix
	uan       string // the full UniqueAwardNumber: cfda + " " + suffix
	fedNum    string // federal award number ("" when none)
	wisNum    string // USDA project number ("" when none)
	startYear int
	duration  int
	employees []string // "LASTNAME, F.I"
	inExtra   bool
	usdaRecs  int  // how many USDA records this grant has
	trap      bool // gets a lookalike USDA-only sibling (comparable number)
	trapFar   bool // gets a far-dated lookalike sibling (no comparable number)
	ncnrsp    bool // gets an NC/NRSP USDA-only sibling
}

// awardEmp records the employees paid on one UMETRICS award (grant or
// filler); it feeds the employees table and the pre-processing join.
type awardEmp struct {
	uan   string
	names []string
}

// genericRec tracks a generic-title record so undecidable cross pairs can
// be registered in the truth.
type genericRec struct {
	id    string // UAN on the UMETRICS side, accession on the USDA side
	title string // lowercase generic title
}

// generator carries the mutable generation state.
type generator struct {
	p         Params
	rng       *rand.Rand
	truth     *Truth
	grants    []*grant
	awardEmps []awardEmp
	genericUM []genericRec
	wisSeq    int
	fedSeq    int
	accSeq    int
	acctSeq   int
	// str assembles the generated ids, names and titles.
	str strBuf
}

// strBuf builds one generated string at a time in a reused buffer; its
// methods chain, and String copies the result out, the string's one
// allocation. An argument must not build a string itself.
type strBuf []byte

func (b *strBuf) s(text string) *strBuf {
	*b = append(*b, text...)
	return b
}

// cased appends text mapped rune by rune, as strings.Map(f, text) does.
func (b *strBuf) cased(text string, f func(rune) rune) *strBuf {
	for _, r := range text {
		*b = utf8.AppendRune(*b, f(r))
	}
	return b
}

// n appends n ≥ 0 zero-padded to width digits, as fmt's %0*d does.
func (b *strBuf) n(n, width int) *strBuf {
	for p := n; width > 1; width-- {
		if p /= 10; p == 0 {
			*b = append(*b, '0')
		}
	}
	*b = strconv.AppendInt(*b, int64(n), 10)
	return b
}

func (b *strBuf) String() string {
	out := string(*b)
	*b = (*b)[:0]
	return out
}

// Generate builds the full synthetic dataset for the given parameters.
func Generate(p Params) (*Dataset, error) {
	if p.UMETRICSRows < p.FederalGrants+p.StateGrants+p.TitleGrants+p.GenericUMETRICS {
		return nil, fmt.Errorf("umetrics: UMETRICSRows %d too small for grant classes", p.UMETRICSRows)
	}
	if p.ExtraRows < p.ExtraFederal+p.ExtraState {
		return nil, fmt.Errorf("umetrics: ExtraRows %d too small for extra grants", p.ExtraRows)
	}
	if p.TrapFamilies > p.FederalGrants+p.StateGrants {
		return nil, fmt.Errorf("umetrics: TrapFamilies %d exceeds federal+state grants", p.TrapFamilies)
	}
	g := &generator{
		p:      p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		truth:  NewTruth(),
		wisSeq: 1000,
		fedSeq: 10000,
		accSeq: 100000,
	}
	g.makeGrants()

	ds := &Dataset{Truth: g.truth, Params: p}
	var err error
	if ds.AwardAgg, ds.ExtraAwardAgg, err = g.buildAwardAgg(); err != nil {
		return nil, err
	}
	if ds.USDA, err = g.buildUSDA(); err != nil {
		return nil, err
	}
	ds.Employees = g.buildEmployees()
	ds.Vendor = g.buildVendor()
	ds.SubAward = g.buildSubAward()
	ds.ObjectCodes = g.buildObjectCodes()
	ds.OrgUnits = g.buildOrgUnits()
	return ds, nil
}

// title draws base title tokens: a mix of common (collision-producing) and
// rare (distinctive) vocabulary. About 8% of title-class grants get very
// short 2-token titles (the C3 overlap-coefficient motivation).
func (g *generator) title(short bool) []string {
	if short {
		return []string{g.rare(), g.rare()}
	}
	n := 4 + g.rng.Intn(5) // 4..8 words
	words := make([]string, 0, n)
	seen := make(map[string]bool)
	for len(words) < n {
		var w string
		if g.rng.Float64() < 0.38 {
			w = commonWords[g.rng.Intn(len(commonWords))]
		} else {
			w = g.rare()
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		words = append(words, w)
	}
	return words
}

func (g *generator) rare() string {
	return rareWords[g.rng.Intn(len(rareWords))]
}

// newFedNum mints a unique federal award number "YYYY-#####-#####".
func (g *generator) newFedNum(year int) string {
	g.fedSeq++
	return g.str.n(year, 0).s("-").n(34000+g.fedSeq%1000, 5).s("-").n(g.fedSeq, 5).String()
}

// newWisNum mints a unique project number "WIS#####".
func (g *generator) newWisNum() string {
	g.wisSeq++
	return g.str.s("WIS").n(g.wisSeq, 5).String()
}

// newAccession mints a unique USDA accession number.
func (g *generator) newAccession() string {
	g.accSeq++
	return strconv.Itoa(g.accSeq)
}

// newAccount mints a UW internal account number ("###-XX##" shape, which
// matches none of the known award-number patterns).
func (g *generator) newAccount() string {
	g.acctSeq++
	letters := [2]byte{'A' + byte(g.acctSeq%26), 'A' + byte((g.acctSeq/26)%26)}
	return g.str.n(100+g.acctSeq%900, 3).s("-").s(string(letters[:])).n(g.acctSeq%100, 2).String()
}

// noisySuffix injects the formatting noise (case, stray spaces) that the
// IRIS baseline's raw comparison cannot normalize away.
func (g *generator) noisySuffix(s string) string {
	switch g.rng.Intn(3) {
	case 0:
		return strings.ToLower(s)
	case 1:
		// Space after the alpha prefix or first hyphen.
		if i := strings.IndexByte(s, '-'); i >= 0 {
			return s[:i+1] + " " + s[i+1:]
		}
		if len(s) > 3 {
			return s[:3] + " " + s[3:]
		}
		return s + " "
	default:
		return s + " "
	}
}

// employeesFor draws 2-4 employee names.
func (g *generator) employeesFor() []string {
	n := 2 + g.rng.Intn(3)
	out := make([]string, n)
	for i := range out {
		last := lastNames[g.rng.Intn(len(lastNames))]
		ini := firstInitials[g.rng.Intn(len(firstInitials))]
		out[i] = g.str.cased(last, unicode.ToUpper).s(", ").s(ini).String()
	}
	return out
}

// usdaRecCount allocates 1-2 USDA records per grant, alternating so the
// one-to-many structure of Section 10 appears.
func usdaRecCount(i int) int {
	if i%2 == 0 {
		return 2
	}
	return 1
}

// makeGrants creates every grant entity, original and extra.
func (g *generator) makeGrants() {
	add := func(class PairClass, inExtra bool, i int) *grant {
		year := 1997 + g.rng.Intn(14)
		// A slice of state and title grants have very short titles — the
		// pairs the overlap-coefficient blocker exists for (and, with
		// drift, the pairs blocking loses entirely).
		short := (class == ClassTitle || class == ClassState) && g.rng.Float64() < 0.1
		gr := &grant{
			class:     class,
			words:     g.title(short),
			cfda:      cfdaPrefixes[g.rng.Intn(len(cfdaPrefixes))],
			startYear: year,
			duration:  2 + g.rng.Intn(4),
			employees: g.employeesFor(),
			inExtra:   inExtra,
			usdaRecs:  usdaRecCount(i),
		}
		switch class {
		case ClassFederal:
			gr.fedNum = g.newFedNum(year)
			gr.suffix = gr.fedNum
		case ClassState:
			gr.wisNum = g.newWisNum()
			gr.suffix = gr.wisNum
		case ClassTitle:
			gr.wisNum = g.newWisNum()
			gr.suffix = g.newAccount() // matches neither USDA field
			gr.usdaRecs = 1
			if i%12 == 0 {
				gr.usdaRecs = 2
			}
		case ClassTitleVeto:
			gr.wisNum = g.newWisNum()
			gr.suffix = g.newWisNum() // a different WIS number: comparable, unequal
			gr.usdaRecs = 1
		}
		// Formatting noise on the suffix (state and federal grants).
		if (class == ClassFederal || class == ClassState) && g.rng.Float64() < g.p.NumberNoiseRate {
			gr.suffix = g.noisySuffix(gr.suffix)
		}
		gr.uan = gr.cfda + " " + gr.suffix
		g.grants = append(g.grants, gr)
		return gr
	}

	for i := 0; i < g.p.FederalGrants; i++ {
		add(ClassFederal, false, i)
	}
	for i := 0; i < g.p.StateGrants; i++ {
		add(ClassState, false, i)
	}
	veto := int(float64(g.p.TitleGrants) * g.p.TitleVetoFraction)
	for i := 0; i < g.p.TitleGrants; i++ {
		if i < veto {
			add(ClassTitleVeto, false, i)
		} else {
			add(ClassTitle, false, i)
		}
	}
	for i := 0; i < g.p.ExtraFederal; i++ {
		add(ClassFederal, true, i)
	}
	for i := 0; i < g.p.ExtraState; i++ {
		add(ClassState, true, i)
	}

	// Assign trap siblings to the first TrapFamilies federal/state
	// original grants (round-robin across both classes for variety).
	assigned := 0
	for _, gr := range g.grants {
		if assigned >= g.p.TrapFamilies {
			break
		}
		if gr.inExtra || (gr.class != ClassFederal && gr.class != ClassState) {
			continue
		}
		gr.trap = true
		assigned++
	}
	// Far-dated lookalike siblings hang off title-class grants (whose
	// internal account numbers the negative rule cannot compare).
	assigned = 0
	for _, gr := range g.grants {
		if assigned >= g.p.TrapTitleFamilies {
			break
		}
		if gr.inExtra || gr.class != ClassTitle || len(gr.words) < 3 {
			continue
		}
		gr.trapFar = true
		assigned++
	}
	// NC/NRSP siblings hang off title-class grants.
	assigned = 0
	for _, gr := range g.grants {
		if assigned >= g.p.NCNRSP {
			break
		}
		if gr.inExtra || gr.class != ClassTitle || gr.trapFar {
			continue
		}
		gr.ncnrsp = true
		assigned++
	}
}

// renderTitle renders title words as the UMETRICS side stores them,
// upper case (Figure 3 style), or as the USDA side does, each word's
// first letter upper case (Figure 4 style); extra follows.
func (g *generator) renderTitle(words []string, upper bool, extra string) string {
	for i, w := range words {
		if i > 0 {
			g.str.s(" ")
		}
		n := min(len(w), 1)
		if upper {
			n = len(w)
		}
		g.str.cased(w[:n], unicode.ToUpper).s(w[n:])
	}
	return g.str.s(extra).String()
}

// usdaTitleVariant perturbs a grant's words for one USDA record: most
// records keep the words; some drop or add a token (the real data's title
// drift). allowHeavy additionally permits drift strong enough to evade
// the overlap-coefficient blocker; it is only enabled for grants whose
// pairs the number rules recover, so heavy drift costs blocking coverage
// (the footnote 3 phenomenon) without making the learning problem
// unsolvable.
func (g *generator) usdaTitleVariant(words []string, allowHeavy bool) []string {
	out := make([]string, len(words))
	copy(out, words)
	r := g.rng.Float64()
	switch {
	case r < 0.2 && len(out) > 4:
		// Drop one word.
		i := g.rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	case r < 0.35:
		out = append(out, g.rare())
	case r < 0.45 && len(out) > 3:
		out[g.rng.Intn(len(out))] = g.rare()
	case r < 0.53 && len(out) >= 6 && allowHeavy:
		// Heavy drift: still shares >= 3 tokens (the overlap blocker
		// keeps it) but the overlap coefficient drops below 0.7 (the
		// coefficient blocker loses it) — footnote 3's reason the union
		// of both blockers is required.
		out = out[:len(out)-2]
		out[g.rng.Intn(len(out))] = g.rare()
		out = append(out, g.rare())
	}
	return out
}

// trapTitleVariant perturbs a host grant's words for its lookalike
// sibling: about half are token-identical (indistinguishable to the
// learner), the rest swap one word.
func (g *generator) trapTitleVariant(words []string) []string {
	out := make([]string, len(words))
	copy(out, words)
	if g.rng.Float64() < 0.5 {
		return out
	}
	i := g.rng.Intn(len(out))
	out[i] = g.rare()
	return out
}

func date(year, month, day int) table.Value {
	return table.D(time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC))
}

// buildAwardAgg builds the original and extra UMETRICSAwardAggMatching
// tables.
func (g *generator) buildAwardAgg() (original, extra *table.Table, err error) {
	original = table.New("UMETRICSAwardAggMatching", AwardAggSchema())
	extra = table.New("UMETRICSAwardAggExtra", AwardAggSchema())

	// appendAward takes the dates drawn, and draws the rest of the row.
	appendAward := func(t *table.Table, uan, title string, first, last table.Value, from, to int) {
		t.MustAppend(table.Row{
			table.S(uan), table.S(title), table.S("USDA"), first, last,
			table.S(g.newAccount()),
			table.F(float64(5000 + g.rng.Intn(200000))),
			table.F(float64(20000 + g.rng.Intn(900000))),
			table.I(int64(10 + g.rng.Intn(500))),
			table.I(int64(from)), table.I(int64(to)),
			table.S(orgUnitNames[g.rng.Intn(len(orgUnitNames))]),
			table.S("UWMSN"),
		})
	}
	appendGrant := func(t *table.Table, gr *grant) {
		endYear := gr.startYear + gr.duration
		g.awardEmps = append(g.awardEmps, awardEmp{uan: gr.uan, names: gr.employees})
		// Transactions start and stop with a year or so of slack around
		// the project window (real spending lags awards).
		appendAward(t, gr.uan, g.renderTitle(gr.words, true, ""),
			date(gr.startYear+g.rng.Intn(2), 1+g.rng.Intn(12), 1+g.rng.Intn(28)),
			date(endYear+g.rng.Intn(2), 1+g.rng.Intn(12), 1+g.rng.Intn(28)), gr.startYear, endYear)
	}
	appendFiller := func(t *table.Table, generic bool) {
		uan := cfdaPrefixes[g.rng.Intn(len(cfdaPrefixes))] + " " + g.newAccount()
		var title string
		if generic {
			base := genericTitles[g.rng.Intn(len(genericTitles))]
			title = strings.ToUpper(base)
			g.genericUM = append(g.genericUM, genericRec{id: uan, title: strings.ToLower(base)})
		} else {
			title = g.renderTitle(g.title(false), true, "")
		}
		g.awardEmps = append(g.awardEmps, awardEmp{uan: uan, names: g.employeesFor()})
		year := 1997 + g.rng.Intn(14)
		appendAward(t, uan, title, date(year, 1+g.rng.Intn(12), 1+g.rng.Intn(28)),
			date(year+2+g.rng.Intn(4), 1+g.rng.Intn(12), 1+g.rng.Intn(28)), year, year+3)
	}

	for _, gr := range g.grants {
		if gr.inExtra {
			appendGrant(extra, gr)
		} else {
			appendGrant(original, gr)
		}
	}
	for i := 0; i < g.p.GenericUMETRICS; i++ {
		appendFiller(original, true)
	}
	for original.Len() < g.p.UMETRICSRows {
		appendFiller(original, false)
	}
	for extra.Len() < g.p.ExtraRows {
		appendFiller(extra, false)
	}
	if original.Len() != g.p.UMETRICSRows || extra.Len() != g.p.ExtraRows {
		return nil, nil, fmt.Errorf("umetrics: award table sizes %d/%d exceed targets %d/%d",
			original.Len(), extra.Len(), g.p.UMETRICSRows, g.p.ExtraRows)
	}
	return original, extra, nil
}
