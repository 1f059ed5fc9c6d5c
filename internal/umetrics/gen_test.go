package umetrics

import (
	"strings"
	"testing"

	"emgo/internal/block"
)

// smallParams is a fast configuration for unit tests.
func smallParams() Params {
	p := TestParams(0.25)
	return p
}

func generateSmall(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateTableSizes(t *testing.T) {
	p := smallParams()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if ds.AwardAgg.Len() != p.UMETRICSRows {
		t.Errorf("AwardAgg rows = %d want %d", ds.AwardAgg.Len(), p.UMETRICSRows)
	}
	if ds.ExtraAwardAgg.Len() != p.ExtraRows {
		t.Errorf("Extra rows = %d want %d", ds.ExtraAwardAgg.Len(), p.ExtraRows)
	}
	if ds.USDA.Len() != p.USDARows {
		t.Errorf("USDA rows = %d want %d", ds.USDA.Len(), p.USDARows)
	}
	if got := ds.USDA.Schema().Len(); got != 78 {
		t.Errorf("USDA cols = %d want 78", got)
	}
	if got := ds.AwardAgg.Schema().Len(); got != 13 {
		t.Errorf("AwardAgg cols = %d want 13", got)
	}
	if got := ds.Employees.Schema().Len(); got != 13 {
		t.Errorf("Employees cols = %d want 13", got)
	}
	if got := ds.SubAward.Schema().Len(); got != 23 {
		t.Errorf("SubAward cols = %d want 23", got)
	}
	if got := ds.Vendor.Schema().Len(); got != 21 {
		t.Errorf("Vendor cols = %d want 21", got)
	}
	if got := ds.ObjectCodes.Schema().Len(); got != 3 {
		t.Errorf("ObjectCodes cols = %d want 3", got)
	}
	if got := ds.OrgUnits.Schema().Len(); got != 5 {
		t.Errorf("OrgUnits cols = %d want 5", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	p := smallParams()
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.AwardAgg.Len() != b.AwardAgg.Len() {
		t.Fatal("non-deterministic row counts")
	}
	for i := 0; i < a.AwardAgg.Len(); i++ {
		if a.AwardAgg.Get(i, "UniqueAwardNumber").Str() != b.AwardAgg.Get(i, "UniqueAwardNumber").Str() {
			t.Fatal("non-deterministic award numbers")
		}
		if a.AwardAgg.Get(i, "AwardTitle").Str() != b.AwardAgg.Get(i, "AwardTitle").Str() {
			t.Fatal("non-deterministic titles")
		}
	}
	if a.Truth.NumMatches() != b.Truth.NumMatches() {
		t.Fatal("non-deterministic truth")
	}
}

func TestGenerateKeysHold(t *testing.T) {
	ds := generateSmall(t)
	ok, err := ds.AwardAgg.IsKey("UniqueAwardNumber")
	if err != nil || !ok {
		t.Fatalf("UniqueAwardNumber should be a key: %v %v", ok, err)
	}
	ok, err = ds.USDA.IsKey("AccessionNumber")
	if err != nil || !ok {
		t.Fatalf("AccessionNumber should be a key: %v %v", ok, err)
	}
}

func TestGenerateTruthClasses(t *testing.T) {
	p := smallParams()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	byClass := make(map[PairClass]int)
	for _, c := range ds.Truth.matches {
		byClass[c]++
	}
	if byClass[ClassFederal] == 0 || byClass[ClassState] == 0 || byClass[ClassTitle] == 0 {
		t.Fatalf("missing match classes: %v", byClass)
	}
	if byClass[ClassTitleVeto] == 0 {
		t.Fatalf("expected some veto-prone title matches: %v", byClass)
	}
	if len(ds.Truth.traps) == 0 {
		t.Fatal("expected trap pairs")
	}
	// Every grant contributes at least one match; totals exceed grant
	// count because of one-to-many annual reports.
	minMatches := p.FederalGrants + p.StateGrants + p.TitleGrants + p.ExtraFederal + p.ExtraState
	if ds.Truth.NumMatches() < minMatches {
		t.Fatalf("matches %d < grants %d", ds.Truth.NumMatches(), minMatches)
	}
}

func TestGenerateMatchStructure(t *testing.T) {
	ds := generateSmall(t)
	// Pick a federal match and check the award number really joins.
	accCol, _ := ds.USDA.Col("AccessionNumber")
	awCol, _ := ds.USDA.Col("AwardNumber")
	accToAward := map[string]string{}
	for i := 0; i < ds.USDA.Len(); i++ {
		accToAward[ds.USDA.Row(i)[accCol].Str()] = ds.USDA.Row(i)[awCol].Str()
	}
	checked := 0
	for _, key := range ds.Truth.Matches() {
		if ds.Truth.MatchClass(key.UAN, key.Accession) != ClassFederal {
			continue
		}
		suffix := SuffixNormalize(key.UAN)
		award := NormalizeNumber(accToAward[key.Accession])
		if suffix != award {
			t.Fatalf("federal match %v: suffix %q != award %q", key, suffix, award)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no federal matches checked")
	}
}

func TestGenerateNumberNoisePresent(t *testing.T) {
	ds := generateSmall(t)
	noisy := 0
	for i := 0; i < ds.AwardAgg.Len(); i++ {
		uan := ds.AwardAgg.Get(i, "UniqueAwardNumber").Str()
		raw := RawSuffix(uan)
		if raw != NormalizeNumber(raw) {
			noisy++
		}
	}
	if noisy == 0 {
		t.Fatal("expected formatting noise in some award numbers")
	}
}

func TestGenerateValidation(t *testing.T) {
	p := smallParams()
	p.UMETRICSRows = 1
	if _, err := Generate(p); err == nil {
		t.Fatal("impossible UMETRICSRows should error")
	}
	p = smallParams()
	p.ExtraRows = 0
	if _, err := Generate(p); err == nil {
		t.Fatal("impossible ExtraRows should error")
	}
	p = smallParams()
	p.TrapFamilies = p.FederalGrants + p.StateGrants + 1
	if _, err := Generate(p); err == nil {
		t.Fatal("too many trap families should error")
	}
	p = smallParams()
	p.USDARows = 5
	if _, err := Generate(p); err == nil {
		t.Fatal("impossible USDARows should error")
	}
}

func TestGenerateVendorNoOverlapWithUSDAOrg(t *testing.T) {
	// The Section 6 step-3 property: vendor OrgName/DUNS do not overlap
	// USDA RecipientOrganization/RecipientDUNS.
	ds := generateSmall(t)
	orgs := map[string]bool{}
	oj, _ := ds.Vendor.Col("OrgName")
	for i := 0; i < ds.Vendor.Len(); i++ {
		orgs[ds.Vendor.Row(i)[oj].Str()] = true
	}
	rj, _ := ds.USDA.Col("RecipientOrganization")
	for i := 0; i < ds.USDA.Len(); i++ {
		if orgs[ds.USDA.Row(i)[rj].Str()] {
			t.Fatal("vendor orgs must not overlap USDA recipient orgs")
		}
	}
}

func TestPreprocess(t *testing.T) {
	ds := generateSmall(t)
	proj, report, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if !report.UMETRICSKeyOK || !report.USDAKeyOK {
		t.Fatalf("keys should hold: %+v", report)
	}
	// The employees table covers extra-slice awards too — FK violations
	// against the original table foreshadow the missing records.
	if report.EmployeeFKViolations == 0 {
		t.Fatal("expected FK violations from extra-slice awards")
	}

	wantUM := []string{"RecordId", "AwardNumber", "AwardTitle", "FirstTransDate", "LastTransDate", "EmployeeName"}
	if got := strings.Join(proj.UMETRICS.Schema().Names(), ","); got != strings.Join(wantUM, ",") {
		t.Fatalf("UMETRICSProjected schema = %s", got)
	}
	wantUS := []string{"RecordId", "AwardNumber", "AwardTitle", "FirstTransDate", "LastTransDate", "AccessionNumber", "EmployeeName"}
	if got := strings.Join(proj.USDA.Schema().Names(), ","); got != strings.Join(wantUS, ",") {
		t.Fatalf("USDAProjected schema = %s", got)
	}
	if proj.UMETRICS.Len() != ds.AwardAgg.Len() || proj.USDA.Len() != ds.USDA.Len() {
		t.Fatal("projection changed row counts")
	}
	// Every UMETRICS record must have employee names (joined, |-separated
	// for multi-employee awards).
	withPipe := 0
	for i := 0; i < proj.UMETRICS.Len(); i++ {
		v := proj.UMETRICS.Get(i, "EmployeeName")
		if v.IsNull() {
			t.Fatalf("row %d missing EmployeeName", i)
		}
		if strings.Contains(v.Str(), "|") {
			withPipe++
		}
	}
	if withPipe == 0 {
		t.Fatal("expected multi-employee concatenations")
	}
	// RecordIds are prefixed and unique.
	if proj.UMETRICS.Get(0, "RecordId").Str() != "u0" {
		t.Fatalf("record id = %q", proj.UMETRICS.Get(0, "RecordId").Str())
	}
	ok, _ := proj.USDA.IsKey("RecordId")
	if !ok {
		t.Fatal("RecordId should be unique")
	}
}

func TestAddProjectNumber(t *testing.T) {
	ds := generateSmall(t)
	proj, _, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := AddProjectNumber(proj, ds.USDA); err != nil {
		t.Fatal(err)
	}
	if !proj.USDA.Schema().Has("ProjectNumber") {
		t.Fatal("ProjectNumber not added")
	}
	if err := AddProjectNumber(proj, ds.USDA); err == nil {
		t.Fatal("double add should error")
	}
	// Some project numbers should be WIS-style.
	found := false
	for i := 0; i < proj.USDA.Len() && !found; i++ {
		v := proj.USDA.Get(i, "ProjectNumber")
		if !v.IsNull() && strings.HasPrefix(v.Str(), "WIS") {
			found = true
		}
	}
	if !found {
		t.Fatal("no WIS project numbers present")
	}
}

func TestSuffixHelpers(t *testing.T) {
	if got := SuffixNormalize("10.200 2008-34103-19449"); got != "2008-34103-19449" {
		t.Fatalf("suffix = %q", got)
	}
	if got := SuffixNormalize("10.203 wis01040"); got != "WIS01040" {
		t.Fatalf("noisy lower = %q", got)
	}
	if got := SuffixNormalize("10.203 WIS 01040"); got != "WIS01040" {
		t.Fatalf("noisy space = %q", got)
	}
	if got := SuffixNormalize("nosuffix"); got != "" {
		t.Fatalf("no-suffix = %q", got)
	}
	if got := RawSuffix("10.203 WIS 01040"); got != "WIS 01040" {
		t.Fatalf("raw = %q", got)
	}
	if got := RawSuffix("nosuffix"); got != "" {
		t.Fatalf("raw no-suffix = %q", got)
	}
}

func TestTruthOracle(t *testing.T) {
	ds := generateSmall(t)
	proj, _, err := Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewTruthOracle(ds.Truth, proj.UMETRICS, proj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	// Find one true pair by scanning.
	found := false
	for a := 0; a < proj.UMETRICS.Len() && !found; a++ {
		for b := 0; b < proj.USDA.Len() && !found; b++ {
			p := block.Pair{A: a, B: b}
			if oracle.IsMatch(p) {
				found = true
				if oracle.Class(p) == ClassNone {
					t.Fatal("match must have a class")
				}
				key := oracle.Key(p)
				if !ds.Truth.IsMatch(key.UAN, key.Accession) {
					t.Fatal("oracle key inconsistent with truth")
				}
			}
		}
	}
	if !found {
		t.Fatal("no true matches visible through the oracle")
	}
	if _, err := NewTruthOracle(ds.Truth, ds.Employees, proj.USDA); err == nil {
		t.Fatal("table without AwardNumber should error")
	}
}

func TestPatternCoverage(t *testing.T) {
	// Generated identifiers must match the published pattern set so the
	// negative rule fires where intended.
	ps := KnownPatterns()
	ds := generateSmall(t)
	fedSeen, wisSeen := false, false
	aj, _ := ds.USDA.Col("AwardNumber")
	pj, _ := ds.USDA.Col("ProjectNumber")
	for i := 0; i < ds.USDA.Len(); i++ {
		if v := ds.USDA.Row(i)[aj]; !v.IsNull() {
			if _, ok := ps.Find(v.Str()); !ok {
				t.Fatalf("federal number %q matches no known pattern", v.Str())
			}
			fedSeen = true
		}
		if v := ds.USDA.Row(i)[pj]; !v.IsNull() {
			if _, ok := ps.Find(v.Str()); !ok {
				t.Fatalf("project number %q matches no known pattern", v.Str())
			}
			wisSeen = true
		}
	}
	if !fedSeen || !wisSeen {
		t.Fatal("expected both number kinds")
	}
	// Internal account numbers must NOT match any known pattern (so the
	// negative rule never vetoes title-class matches).
	if _, ok := ps.Find("144-AB12"); ok {
		t.Fatal("account shape must not match known patterns")
	}
}
