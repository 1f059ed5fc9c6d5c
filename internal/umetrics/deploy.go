package umetrics

import (
	"context"
	"fmt"

	"emgo/internal/table"
	"emgo/internal/workflow"
)

// This file runs the packaged Figure 10 workflow in production — the
// Section 12 "Next Steps": "the UMETRICS team wanted us to package the
// matcher so that they could move it into the UMETRICS repository to do
// matching for other data slices". The packaged form is FigureSpec(10) —
// blockers, both positive rules, the negative pattern rules — carrying
// the feature descriptors, the fitted imputer means and the trained
// matcher, all JSON-serializable; the study's refining and
// core.Project.Spec write it through workflow.Spec.Package. Production
// rebuilds the workflow against each new data slice with DeployTransforms.

// Transform registry keys referenced by the deployment spec.
const (
	TransformSuffixNormalize = "umetrics_suffix_normalize"
	TransformNormalizeNumber = "umetrics_normalize_number"
)

// DeployTransforms returns the transform registry production must supply
// when building the deployed spec.
func DeployTransforms() workflow.Transforms {
	return workflow.Transforms{
		TransformSuffixNormalize: SuffixNormalize,
		TransformNormalizeNumber: NormalizeNumber,
	}
}

// RunDeployed executes a packaged workflow spec against one data slice
// under the hardened runtime — the production entry point the UMETRICS
// repository calls per slice. The spec is rebuilt with the standard
// deployment transform registry and deployed over right
// (workflow.Workflow.Deploy: the blockers' columns and key indexes, the
// sure rules' join and the matcher's feature cells built once, the
// reference titles tokenised once for blockers and features both), then
// run with RunCtx so the slice stops at ctx's deadline and keeps its
// record even when it fails. On a build or deploy failure the returned
// Result is nil; on a run failure it carries the report.
//
// Every run emits a machine-readable report by default: RunCtx roots an
// obs trace when the caller's context has none, so Result.Report always
// carries per-stage spans, with the blocking, vectorizing and predicting
// spans under them counting their items.
func RunDeployed(ctx context.Context, spec *workflow.Spec, left, right *table.Table, opts workflow.RunOptions) (*workflow.Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("umetrics: deployment needs a workflow spec")
	}
	w, err := spec.Build(left, right, DeployTransforms())
	if err != nil {
		return nil, fmt.Errorf("umetrics: build deployed workflow: %w", err)
	}
	if w, err = w.Deploy(ctx, w.Matcher, right); err != nil {
		return nil, fmt.Errorf("umetrics: deploy workflow: %w", err)
	}
	return w.RunCtx(ctx, left, right, opts)
}
