package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"emgo/internal/table"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// Deployment is the -spec -left -right -transforms -date-cols flag set of
// the binaries that run a packaged workflow over two CSV tables, and —
// after Load — what those flags name.
type Deployment struct {
	specPath, leftPath, rightPath, transformSet, dateCols string

	// SpecData is the spec file's bytes (a checkpoint store is
	// fingerprinted by them), Spec their parsed form, Transforms the
	// registry its rules reference.
	SpecData    []byte
	Spec        *workflow.Spec
	Transforms  workflow.Transforms
	Left, Right *table.Table
}

// DeploymentFlags registers the flag set on fs; leftUsage and rightUsage
// say what the binary does with each table.
func DeploymentFlags(fs *flag.FlagSet, leftUsage, rightUsage string) *Deployment {
	d := &Deployment{}
	fs.StringVar(&d.specPath, "spec", "", "packaged workflow spec (JSON)")
	fs.StringVar(&d.leftPath, "left", "", leftUsage)
	fs.StringVar(&d.rightPath, "right", "", rightUsage)
	fs.StringVar(&d.transformSet, "transforms", "umetrics", "transform registry the spec references: umetrics | none")
	fs.StringVar(&d.dateCols, "date-cols", "FirstTransDate,LastTransDate",
		"comma-separated columns parsed as dates (needed by date features)")
	return d
}

// Complete reports whether the three required paths were given.
func (d *Deployment) Complete() bool {
	return d.specPath != "" && d.leftPath != "" && d.rightPath != ""
}

// Load reads and parses the spec, picks the transform registry, and reads
// both tables with the date columns typed.
func (d *Deployment) Load() (err error) {
	if d.SpecData, err = os.ReadFile(d.specPath); err != nil {
		return err
	}
	if d.Spec, err = workflow.ParseSpec(d.SpecData); err != nil {
		return err
	}
	switch d.transformSet {
	case "umetrics":
		d.Transforms = umetrics.DeployTransforms()
	case "none":
		d.Transforms = workflow.Transforms{}
	default:
		return fmt.Errorf("unknown transform set %q", d.transformSet)
	}
	kinds := map[string]table.Kind{}
	for _, c := range strings.Split(d.dateCols, ",") {
		if c = strings.TrimSpace(c); c != "" {
			kinds[c] = table.Date
		}
	}
	if d.Left, err = table.ReadCSVFile(d.leftPath, kinds); err != nil {
		return err
	}
	d.Right, err = table.ReadCSVFile(d.rightPath, kinds)
	return err
}
