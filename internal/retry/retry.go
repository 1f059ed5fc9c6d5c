// Package retry holds only Policy, the argument workflow.Spec.BuildCtx
// takes and ignores. Nothing in the repository retries: BuildCtx keeps its
// signature because bench/embench calls it, and BuildCtx and this package
// go together with the next change to that module.
package retry

// Policy is the ignored BuildCtx argument; it has no fields.
type Policy struct{}
