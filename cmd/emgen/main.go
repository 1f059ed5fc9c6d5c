// Command emgen generates the synthetic UMETRICS/USDA dataset as CSV
// files — the seven raw tables of Figure 2, the extra UMETRICS slice of
// Section 10, and a ground-truth file for evaluation.
//
// Usage:
//
//	emgen [-scale 1.0] [-seed 1] [-full] [-out data/]
//
// With -full the auxiliary tables are generated at the exact Figure 2 row
// counts (1.45M employee rows, 378K vendor rows, ...); the default keeps
// them compact, which is all the matching pipeline needs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"emgo/internal/cliutil"
	"emgo/internal/table"
	"emgo/internal/umetrics"
)

// SIGINT/SIGTERM stop the run between table writes (each write is
// atomic, so no truncated CSV is ever left behind) and exit 130.
func main() { cliutil.Main("emgen", runCtx) }

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "data scale relative to the paper (1.0 = Figure 2 sizes)")
	seed := fs.Int64("seed", 1, "generator seed")
	full := fs.Bool("full", false, "generate auxiliary tables at full Figure 2 size")
	projected := fs.Bool("projected", false, "also run the Section 6 pre-processing and write the projected matching tables")
	out := fs.String("out", "data", "output directory")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}

	var params umetrics.Params
	if *scale == 1.0 && *full {
		params = umetrics.PaperParams()
	} else {
		params = umetrics.TestParams(*scale)
		if *full {
			pp := umetrics.PaperParams()
			params.EmployeeRows = int(float64(pp.EmployeeRows) * *scale)
			params.VendorRows = int(float64(pp.VendorRows) * *scale)
			params.SubAwardRows = int(float64(pp.SubAwardRows) * *scale)
		}
	}
	params.Seed = *seed

	ds, err := umetrics.Generate(params)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	tables := map[string]*table.Table{
		"UMETRICSAwardAggMatching.csv":    ds.AwardAgg,
		"UMETRICSAwardAggExtra.csv":       ds.ExtraAwardAgg,
		"UMETRICSEmployeesMatching.csv":   ds.Employees,
		"UMETRICSObjectCodesMatching.csv": ds.ObjectCodes,
		"UMETRICSOrgUnitsMatching.csv":    ds.OrgUnits,
		"UMETRICSSubAwardMatching.csv":    ds.SubAward,
		"UMETRICSVendorMatching.csv":      ds.Vendor,
		"USDAAwardMatching.csv":           ds.USDA,
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// A signal between writes stops the run with every finished file
		// intact (WriteCSVFile is atomic, so none is ever truncated).
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t := tables[name]
		path := filepath.Join(*out, name)
		if err := t.WriteCSVFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-36s %9d rows x %2d cols\n", name, t.Len(), t.Schema().Len())
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err := writeTruth(filepath.Join(*out, "ground_truth.csv"), ds); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-36s %9d true match pairs\n", "ground_truth.csv", ds.Truth.NumMatches())

	if *projected {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
		if err != nil {
			return err
		}
		if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
			return err
		}
		for name, t := range map[string]*table.Table{
			"UMETRICSProjected.csv": proj.UMETRICS,
			"USDAProjected.csv":     proj.USDA,
		} {
			if err := t.WriteCSVFile(filepath.Join(*out, name)); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-36s %9d rows x %2d cols\n", name, t.Len(), t.Schema().Len())
		}
	}
	return nil
}

// writeTruth dumps the true (UniqueAwardNumber, AccessionNumber) pairs
// and their classes.
func writeTruth(path string, ds *umetrics.Dataset) error {
	keys := ds.Truth.Matches()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].UAN != keys[j].UAN {
			return keys[i].UAN < keys[j].UAN
		}
		return keys[i].Accession < keys[j].Accession
	})
	rows := make([][]string, len(keys))
	for i, k := range keys {
		rows[i] = []string{k.UAN, k.Accession, ds.Truth.MatchClass(k.UAN, k.Accession).String()}
	}
	return cliutil.WriteCSV(path, []string{"UniqueAwardNumber", "AccessionNumber", "Class"}, rows)
}
