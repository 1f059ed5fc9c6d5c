package umetrics

import (
	"strconv"

	"emgo/internal/table"
)

// buildEmployees builds UMETRICSEmployeesMatching. With EmployeeRows == 0
// it emits one row per (award, employee) pair — all the pre-processing
// join needs. With a positive target it pads with additional pay-period
// rows, cycling over awards and employees, to hit the exact Figure 2 row
// count.
func (g *generator) buildEmployees() *table.Table {
	t := table.New("UMETRICSEmployeesMatching", EmployeesSchema())
	empSeq := 0
	appendRow := func(uan, name string, period int) {
		empSeq++
		year := 1997 + (period/26)%14
		month := 1 + (period*2)%12
		t.MustAppend(table.Row{
			table.S(uan),
			date(year, month, 1),
			date(year, month, 14),
			table.S(g.str.s("144-").n(empSeq%1000000, 6).String()),
			table.S(g.str.s("E").n(hashName(name)%10000000, 7).String()),
			table.S(name),
			table.S(occupationalClasses[empSeq%len(occupationalClasses)]),
			table.S(jobTitles[empSeq%len(jobTitles)]),
			table.S(g.str.n(100+empSeq%12, 3).String()),
			table.S(g.str.n(11+empSeq%8, 2).s("-").n(1000+empSeq%9000, 4).String()),
			table.S([]string{"Full Time", "Part Time"}[empSeq%2]),
			table.F(float64(empSeq%100) / 100),
			table.I(int64(year)),
		})
	}

	for _, ae := range g.awardEmps {
		for _, name := range ae.names {
			appendRow(ae.uan, name, empSeq)
		}
	}
	if g.p.EmployeeRows > 0 {
		if t.Len() > g.p.EmployeeRows {
			// More distinct pairs than the target allows; accept the
			// larger table rather than dropping join rows.
			return t
		}
		for i := 0; t.Len() < g.p.EmployeeRows; i++ {
			ae := g.awardEmps[i%len(g.awardEmps)]
			appendRow(ae.uan, ae.names[i%len(ae.names)], i)
		}
	}
	return t
}

// hashName gives a stable pseudo-ID for an employee name.
func hashName(s string) int {
	h := 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ int(s[i])) * 16777619
		h &= 0x7fffffff
	}
	return h
}

// buildVendor builds UMETRICSVendorMatching. Its OrgName/DUNS values
// deliberately do NOT overlap the USDA RecipientOrganization/DUNS values —
// the Section 6 check that ruled the table out for matching.
func (g *generator) buildVendor() *table.Table {
	t := table.New("UMETRICSVendorMatching", VendorSchema())
	for i := 0; i < g.p.VendorRows; i++ {
		ae := g.awardEmps[g.rng.Intn(len(g.awardEmps))]
		year := 1997 + g.rng.Intn(14)
		t.MustAppend(table.Row{
			table.S(ae.uan),
			date(year, 1+g.rng.Intn(12), 1),
			date(year, 1+g.rng.Intn(12), 28),
			table.S(g.str.s("144-").n(g.rng.Intn(1000000), 6).String()),
			table.S(g.str.n(100+g.rng.Intn(12), 3).String()),
			table.S(g.str.s("ORG").n(g.rng.Intn(100000), 5).String()),
			table.S(g.str.n(10+g.rng.Intn(80), 2).s("-").n(g.rng.Intn(10000000), 7).String()),
			table.S(g.str.n(500000000+g.rng.Intn(400000000), 9).String()),
			table.F(float64(50 + g.rng.Intn(50000))),
			table.S(vendorNames[g.rng.Intn(len(vendorNames))]),
			table.Null(table.String),
			table.S(strconv.Itoa(1 + g.rng.Intn(9999))),
			table.S(strconv.Itoa(1 + g.rng.Intn(9999))),
			table.S("University Ave"),
			table.S("Madison WI"),
			table.S("Madison"),
			table.S("WI"),
			table.S(g.str.s("537").n(g.rng.Intn(100), 2).String()),
			table.Null(table.String),
			table.S("USA"),
			table.I(int64(year)),
		})
	}
	return t
}

// buildSubAward builds UMETRICSSubAwardMatching.
func (g *generator) buildSubAward() *table.Table {
	t := table.New("UMETRICSSubAwardMatching", SubAwardSchema())
	for i := 0; i < g.p.SubAwardRows; i++ {
		ae := g.awardEmps[g.rng.Intn(len(g.awardEmps))]
		year := 1997 + g.rng.Intn(14)
		t.MustAppend(table.Row{
			table.S(ae.uan),
			table.S("1450 Linden Dr"),
			table.Null(table.String),
			table.S("Madison"),
			table.S("USA"),
			table.S(g.str.n(600000000+g.rng.Intn(300000000), 9).String()),
			table.S(g.str.s("537").n(g.rng.Intn(100), 2).String()),
			table.S(g.str.n(10+g.rng.Intn(80), 2).s("-").n(g.rng.Intn(10000000), 7).String()),
			table.Null(table.String),
			table.S(g.str.n(100+g.rng.Intn(12), 3).String()),
			table.S(vendorNames[g.rng.Intn(len(vendorNames))]),
			table.S(g.str.s("ORG").n(g.rng.Intn(100000), 5).String()),
			table.Null(table.String),
			date(year, 12, 28),
			date(year, 1, 1),
			table.S(g.str.s("144-").n(g.rng.Intn(1000000), 6).String()),
			table.Null(table.String),
			table.Null(table.String),
			table.S("WI"),
			table.S("Observatory Dr"),
			table.S(strconv.Itoa(1 + g.rng.Intn(9999))),
			table.F(float64(1000 + g.rng.Intn(250000))),
			table.I(int64(year)),
		})
	}
	return t
}

// buildObjectCodes builds UMETRICSObjectCodesMatching.
func (g *generator) buildObjectCodes() *table.Table {
	t := table.New("UMETRICSObjectCodesMatching", ObjectCodesSchema())
	for i := 0; i < g.p.ObjectCodeRows; i++ {
		t.MustAppend(table.Row{
			table.S(g.str.n(100+i%400, 3).String()),
			table.S(objectCodeTexts[i%len(objectCodeTexts)]),
			table.I(int64(1997 + i%14)),
		})
	}
	return t
}

// buildOrgUnits builds UMETRICSOrgUnitsMatching.
func (g *generator) buildOrgUnits() *table.Table {
	t := table.New("UMETRICSOrgUnitsMatching", OrgUnitsSchema())
	for i := 0; i < g.p.OrgUnitRows; i++ {
		unit := orgUnitNames[i%len(orgUnitNames)]
		t.MustAppend(table.Row{
			table.S("UWMSN"),
			table.S(unit),
			table.S("University of Wisconsin-Madison"),
			table.S("Department of " + unit),
			table.I(int64(1997 + i%14)),
		})
	}
	return t
}
