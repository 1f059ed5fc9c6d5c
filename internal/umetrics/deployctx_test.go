package umetrics

import (
	"context"
	"testing"

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
	if got.Report == nil || workflow.Stages(got.Report) == "" {
		t.Fatal("deployed run recorded no stages")
	}
}

func TestRunDeployedGuards(t *testing.T) {
	if _, err := RunDeployed(context.Background(), nil, nil, nil, workflow.RunOptions{}); err == nil {
		t.Fatal("nil spec must error")
	}
}
