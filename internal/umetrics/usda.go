package umetrics

import (
	"fmt"
	"strings"
	"unicode"

	"emgo/internal/table"
)

// usdaRecord is everything needed to render one USDA row.
type usdaRecord struct {
	accession  string
	words      []string
	titleExtra string // appended verbatim to the rendered title (NC/NRSP)
	fedNum     string // "" renders as null AwardNumber
	wisNum     string // "" renders as null ProjectNumber
	director   string
	startYear  int
	duration   int
	multistate string
	generic    bool
	genericRaw string // the exact generic title text
}

// directorVariant renders an UMETRICS employee name the way USDA records
// it: usually title case ("Kermicle, J.L"), sometimes left uppercase.
func (g *generator) directorVariant(name string) string {
	if g.rng.Float64() < 0.3 {
		return name // keep UMETRICS's uppercase form
	}
	comma := strings.IndexByte(name, ',')
	if comma <= 0 {
		return name
	}
	last := name[:comma]
	return g.str.cased(last[:1], unicode.ToUpper).cased(last[1:], unicode.ToLower).s(name[comma:]).String()
}

// buildUSDA builds the USDAAwardMatching table and records the ground
// truth for every generated pair.
func (g *generator) buildUSDA() (*table.Table, error) {
	t := table.New("USDAAwardMatching", USDASchema())
	var records []usdaRecord

	// Per-grant USDA records (the true matches).
	for _, gr := range g.grants {
		director := g.directorVariant(gr.employees[0])
		for k := 0; k < gr.usdaRecs; k++ {
			heavy := gr.class == ClassFederal || gr.class == ClassState
			words := g.usdaTitleVariant(gr.words, heavy)
			if gr.class == ClassState && len(gr.words) == 2 && g.rng.Float64() < 0.7 {
				// Some state projects are recorded under entirely
				// different titles in the two systems ("the same research
				// project can have different research titles recorded in
				// UMETRICS and at universities"): blocking loses the pair
				// and the blocking debugger cannot see it — only the
				// project-number rule of Section 10 recovers it.
				words = []string{g.rare(), g.rare()}
			}
			rec := usdaRecord{
				accession: g.newAccession(),
				words:     words,
				director:  director,
				startYear: gr.startYear + k, // annual reports
				// End dates drift a year either way between the systems.
				duration: gr.duration - k + g.rng.Intn(3) - 1,
			}
			switch gr.class {
			case ClassFederal:
				rec.fedNum = gr.fedNum
				rec.wisNum = gr.wisNum
			case ClassState, ClassTitle, ClassTitleVeto:
				rec.wisNum = gr.wisNum
			}
			records = append(records, rec)
			g.truth.AddMatch(gr.uan, rec.accession, gr.class)
		}
		// Lookalike sibling (trap): a different project in the same
		// series — same director, near-identical title, a comparable but
		// different identifier, shifted years. NOT a match.
		if gr.trap {
			sib := usdaRecord{
				accession: g.newAccession(),
				words:     g.trapTitleVariant(gr.words),
				director:  director,
				startYear: gr.startYear + g.rng.Intn(3),
				duration:  gr.duration + g.rng.Intn(2),
			}
			if gr.class == ClassFederal {
				sib.fedNum = g.newFedNum(sib.startYear)
			} else {
				sib.wisNum = g.newWisNum()
			}
			records = append(records, sib)
			g.truth.AddTrap(gr.uan, sib.accession, ClassTrap)
		}
		// Far-dated lookalike: same series, no comparable identifier, a
		// project window years away (the D3 date criterion is the only
		// way to call it, and the negative rule cannot veto it).
		if gr.trapFar {
			sib := usdaRecord{
				accession: g.newAccession(),
				words:     g.trapTitleVariant(gr.words),
				director:  director,
				startYear: gr.startYear + 3 + g.rng.Intn(3),
				duration:  gr.duration,
				wisNum:    g.newWisNum(),
			}
			records = append(records, sib)
			g.truth.AddTrap(gr.uan, sib.accession, ClassTrap)
		}
		// NC/NRSP multistate sibling (the D1 pathology): same title plus
		// the multistate suffix; even the experts could not call it.
		if gr.ncnrsp {
			sib := usdaRecord{
				accession:  g.newAccession(),
				words:      gr.words,
				titleExtra: " NC/NRSP",
				director:   director,
				startYear:  gr.startYear,
				duration:   gr.duration,
				multistate: g.str.s("NC-").n(g.rng.Intn(1000), 3).String(),
			}
			records = append(records, sib)
			g.truth.AddHard(gr.uan, sib.accession, ClassNCNRSP)
		}
	}

	// Generic-title USDA records; cross pairs with same-titled generic
	// UMETRICS records are undecidable.
	for i := 0; i < g.p.GenericUSDA; i++ {
		base := genericTitles[g.rng.Intn(len(genericTitles))]
		rec := usdaRecord{
			accession:  g.newAccession(),
			generic:    true,
			genericRaw: base,
			director:   g.directorVariant(g.employeesFor()[0]),
			startYear:  1997 + g.rng.Intn(14),
			duration:   2 + g.rng.Intn(3),
			wisNum:     g.newWisNum(),
		}
		records = append(records, rec)
		for _, um := range g.genericUM {
			if um.title == strings.ToLower(base) {
				g.truth.AddHard(um.id, rec.accession, ClassGeneric)
			}
		}
	}

	// USDA-only filler: state agricultural experiment station projects
	// and federal grants outside the UMETRICS window.
	if len(records) > g.p.USDARows {
		return nil, fmt.Errorf("umetrics: %d USDA records exceed target %d", len(records), g.p.USDARows)
	}
	for i := 0; len(records) < g.p.USDARows; i++ {
		rec := usdaRecord{
			accession: g.newAccession(),
			words:     g.title(false),
			director:  g.directorVariant(g.employeesFor()[0]),
			startYear: 1997 + g.rng.Intn(14),
			duration:  2 + g.rng.Intn(4),
		}
		if i%5 < 3 {
			rec.wisNum = g.newWisNum() // state project, no award number
		} else {
			rec.fedNum = g.newFedNum(rec.startYear)
		}
		records = append(records, rec)
	}

	for i := range records {
		t.MustAppend(g.usdaRow(t.Schema(), &records[i]))
	}
	return t, nil
}

// usdaRow renders one 78-column USDA row.
func (g *generator) usdaRow(schema *table.Schema, rec *usdaRecord) table.Row {
	row := make(table.Row, schema.Len())
	for i := range row {
		row[i] = table.Null(schema.Field(i).Kind)
	}
	set := func(col string, v table.Value) {
		j, ok := schema.Lookup(col)
		if !ok {
			panic("umetrics: unknown USDA column " + col)
		}
		row[j] = v
	}

	title := g.renderTitle(rec.words, false, rec.titleExtra)
	agency := sponsoringAgencies[g.rng.Intn(len(sponsoringAgencies))]
	mechanism := fundingMechanisms[g.rng.Intn(len(fundingMechanisms))]
	if rec.fedNum == "" {
		mechanism = "State Funding"
		agency = "State Agricultural Experiment Station"
	}
	if rec.generic {
		title = rec.genericRaw
	}

	set("AccessionNumber", table.S(rec.accession))
	set("ProjectTitle", table.S(title))
	set("SponsoringAgency", table.S(agency))
	set("FundingMechanism", table.S(mechanism))
	if rec.fedNum != "" {
		set("AwardNumber", table.S(rec.fedNum))
	}
	set("InitialAwardFiscalYear", table.I(int64(rec.startYear)))
	set("RecipientOrganization", table.S("SAES - UNIVERSITY OF WISCONSIN"))
	if g.rng.Float64() < 0.4 {
		set("RecipientDUNS", table.S(g.str.n(100000000+g.rng.Intn(900000000), 9).String()))
	}
	set("ProjectDirector", table.S(rec.director))
	if rec.multistate != "" {
		set("MultistateProjectNumber", table.S(rec.multistate))
	}
	if rec.wisNum != "" {
		set("ProjectNumber", table.S(rec.wisNum))
	}
	endYear := rec.startYear + rec.duration
	set("ProjectStartDate", date(rec.startYear, 1+g.rng.Intn(12), 1+g.rng.Intn(28)))
	set("ProjectEndDate", date(endYear, 1+g.rng.Intn(12), 1+g.rng.Intn(28)))
	set("ProjectStartFiscalYear", table.I(int64(rec.startYear)))

	// A sparse scattering of administrative fields; most stay null, as in
	// the real extract.
	set("PerformingOrganization", table.S("UNIVERSITY OF WISCONSIN"))
	set("PerformingState", table.S("WISCONSIN"))
	set("StatusCode", table.S([]string{"TERMINATED", "ACTIVE", "COMPLETE"}[g.rng.Intn(3)]))
	set("GrantYear", table.I(int64(rec.startYear)))
	if rec.fedNum != "" {
		set("Financial: USDA Contracts, Grants, Coop Agmt",
			table.F(float64(25000+g.rng.Intn(400000))))
	}
	// The year's funds column, clamped to FY1997..FY2012, which are
	// consecutive columns.
	fy, _ := schema.Lookup("FY1997Funds")
	row[fy+min(max(rec.startYear, 1997), 2012)-1997] = table.F(float64(10000 + g.rng.Intn(150000)))
	return row
}
