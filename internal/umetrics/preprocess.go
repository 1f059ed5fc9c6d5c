package umetrics

import (
	"fmt"
	"strconv"

	"emgo/internal/table"
)

// Projected holds the two matching-ready tables produced by the Section 6
// pre-processing: UMETRICSProjected and USDAProjected.
type Projected struct {
	UMETRICS *table.Table
	USDA     *table.Table
}

// PreprocessReport records the validation results of Section 6 step 2.
type PreprocessReport struct {
	// UMETRICSKeyOK / USDAKeyOK report whether the claimed keys held.
	UMETRICSKeyOK bool
	USDAKeyOK     bool
	// EmployeeFKViolations counts employee rows whose award is not in the
	// award table (nonzero here foreshadows the missing-records episode).
	EmployeeFKViolations int
}

// Preprocess executes the Section 6 pipeline on the three relevant tables:
// validate keys, project the matching-relevant columns, align column
// names, join in the concatenated employee names, and add RecordId
// columns. usdaPrefix distinguishes record IDs of different slices
// (original vs extra) — pass "u"/"s" style prefixes.
func Preprocess(awardAgg, employees, usda *table.Table, umPrefix, usdaPrefix string) (*Projected, *PreprocessReport, error) {
	proj, report, _, err := preprocess(awardAgg, employees, usda, umPrefix, usdaPrefix)
	return proj, report, err
}

// preprocess is Preprocess, also returning the grouped employee names
// for another slice's projectUMETRICS.
func preprocess(awardAgg, employees, usda *table.Table, umPrefix, usdaPrefix string) (*Projected, *PreprocessReport, *table.Table, error) {
	report := &PreprocessReport{}

	// Step 2: key and foreign-key validation.
	ok, err := awardAgg.IsKey("UniqueAwardNumber")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("umetrics: preprocess: %w", err)
	}
	report.UMETRICSKeyOK = ok
	ok, err = usda.IsKey("AccessionNumber")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("umetrics: preprocess: %w", err)
	}
	report.USDAKeyOK = ok
	report.EmployeeFKViolations, err = employees.ForeignKeyViolations("UniqueAwardNumber", awardAgg, "UniqueAwardNumber")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("umetrics: preprocess: %w", err)
	}

	// Step 4.a: project the matching-relevant columns; step 4.b: align
	// column names.
	us, err := usda.Project("USDAProjected",
		"AwardNumber", "ProjectTitle", "ProjectStartDate", "ProjectEndDate",
		"AccessionNumber", "ProjectDirector")
	if err != nil {
		return nil, nil, nil, err
	}
	us, err = us.Rename(map[string]string{
		"ProjectTitle":     "AwardTitle",
		"ProjectStartDate": "FirstTransDate",
		"ProjectEndDate":   "LastTransDate",
		"ProjectDirector":  "EmployeeName",
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Step 4.b (continued): "for each award, these employee names were
	// concatenated ... separated by the | character".
	grouped, err := employees.GroupConcat("emp", "UniqueAwardNumber", "FullName", "|")
	if err != nil {
		return nil, nil, nil, err
	}
	um, err := projectUMETRICS(awardAgg, grouped, umPrefix)
	if err != nil {
		return nil, nil, nil, err
	}

	// Step 4.c: add RecordId columns.
	if us, err = addRecordID(us, usdaPrefix); err != nil {
		return nil, nil, nil, err
	}
	us.SetName("USDAProjected")
	return &Projected{UMETRICS: um, USDA: us}, report, grouped, nil
}

// projectUMETRICS is Section 6 step 4 on an award table: project and
// rename the matching-relevant columns, join in the grouped employee
// names, and add RecordIds.
func projectUMETRICS(awardAgg, grouped *table.Table, prefix string) (*table.Table, error) {
	um, err := awardAgg.Project("UMETRICSProjected",
		"UniqueAwardNumber", "AwardTitle", "FirstTransDate", "LastTransDate")
	if err != nil {
		return nil, err
	}
	if um, err = um.Rename(map[string]string{"UniqueAwardNumber": "AwardNumber"}); err != nil {
		return nil, err
	}
	if um, err = um.Join("UMETRICSProjected", grouped, "AwardNumber", "UniqueAwardNumber", table.LeftJoin); err != nil {
		return nil, err
	}
	if um, err = um.DropColumn("UniqueAwardNumber"); err != nil {
		return nil, err
	}
	if um, err = um.Rename(map[string]string{"FullName": "EmployeeName"}); err != nil {
		return nil, err
	}
	if um, err = addRecordID(um, prefix); err != nil {
		return nil, err
	}
	um.SetName("UMETRICSProjected")
	return um, nil
}

// addRecordID prepends a RecordId column valued prefix+rowIndex.
func addRecordID(t *table.Table, prefix string) (*table.Table, error) {
	i, id := 0, []byte(prefix)
	withID, err := t.AddColumn(table.Field{Name: "RecordId", Kind: table.String}, func(table.Row) table.Value {
		id = strconv.AppendInt(id[:len(prefix)], int64(i), 10)
		i++
		return table.S(string(id))
	})
	if err != nil {
		return nil, err
	}
	cols := append([]string{"RecordId"}, t.Schema().Names()...)
	return withID.Project(t.Name(), cols...)
}

// AddProjectNumber appends the USDA ProjectNumber column to a projected
// USDA table — the Section 10 revision (footnote 9: "ProjectNumber is not
// in table USDAProjected. However, it is in USDAAwardMatching and thus can
// be easily added").
func AddProjectNumber(projected *Projected, usda *table.Table) error {
	if projected.USDA.Schema().Has("ProjectNumber") {
		return fmt.Errorf("umetrics: ProjectNumber already added")
	}
	pn, err := usda.Project("pn", "AccessionNumber", "ProjectNumber")
	if err != nil {
		return err
	}
	joined, err := projected.USDA.Join("USDAProjected", pn, "AccessionNumber", "AccessionNumber", table.LeftJoin)
	if err != nil {
		return err
	}
	joined, err = joined.DropColumn("pn.AccessionNumber")
	if err != nil {
		return err
	}
	joined.SetName("USDAProjected")
	projected.USDA = joined
	return nil
}
