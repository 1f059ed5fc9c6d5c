package umetrics

import (
	"context"
	"strings"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/retry"
	"emgo/internal/workflow"
)

func TestRunDeployedMatchesPlainDeployment(t *testing.T) {
	proj, spec := trainForDeploy(t)
	deployed, err := spec.Build(proj.UMETRICS, proj.USDA, DeployTransforms())
	if err != nil {
		t.Fatal(err)
	}
	want, err := deployed.Run(proj.UMETRICS, proj.USDA)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA, workflow.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Final.Len() != want.Final.Len() {
		t.Fatalf("hardened deployment %d matches, plain %d", got.Final.Len(), want.Final.Len())
	}
	for _, p := range want.Final.Pairs() {
		if !got.Final.Contains(p) {
			t.Fatalf("hardened deployment missing pair %v", p)
		}
	}
	if got.Log == nil || len(got.Log.Entries()) == 0 {
		t.Fatal("deployed run produced no provenance log")
	}
}

func TestRunDeployedRetriesTransformLookup(t *testing.T) {
	defer fault.Reset()
	proj, spec := trainForDeploy(t)
	// The registry's first lookup fails transiently; a build given a retry
	// policy covers it and the workflow it returns runs.
	fault.Enable("workflow.spec.transform", fault.Plan{FailFirst: 1})
	w, err := spec.BuildCtx(context.Background(), proj.UMETRICS, proj.USDA, DeployTransforms(),
		retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatalf("transient lookup fault should be retried: %v", err)
	}
	res, err := w.RunCtx(context.Background(), proj.UMETRICS, proj.USDA, workflow.RunOptions{})
	if err != nil || res.Final.Len() == 0 {
		t.Fatalf("deployed run found nothing (err %v)", err)
	}
	// RunDeployed builds without one: the same fault kills the build
	// before any stage runs.
	fault.Enable("workflow.spec.transform", fault.Plan{FailFirst: 1})
	res, err = RunDeployed(context.Background(), spec, proj.UMETRICS, proj.USDA, workflow.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "build deployed workflow") {
		t.Fatalf("err: %v", err)
	}
	if res != nil {
		t.Fatal("build failure must not fabricate a result")
	}
}

func TestRunDeployedGuards(t *testing.T) {
	if _, err := RunDeployed(context.Background(), nil, nil, nil, workflow.RunOptions{}); err == nil {
		t.Fatal("nil spec must error")
	}
}
