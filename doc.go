// Package emgo is a from-scratch Go reproduction of "Executing Entity
// Matching End to End: A Case Study" (Konda et al., EDBT 2019): a
// complete PyMatcher/Magellan-style entity-matching system — tables,
// profiling, blocking, labeling, feature generation, learned matchers,
// rule layers, workflow composition, accuracy estimation, deployment and
// monitoring — plus the UMETRICS/USDA case study the paper narrates,
// regenerated end to end on a calibrated synthetic dataset.
//
// The root package holds no code of its own; it carries the experiment
// harness (experiments*_test.go — one test per table/figure of the
// paper) and the benchmark suite (bench*_test.go). Start with:
//
//   - internal/core: the public Project API (the how-to-guide stages)
//   - docs/HOWTO.md: the guide itself
//   - DESIGN.md / EXPERIMENTS.md: design decisions and paper-vs-measured
//   - cmd/emcasestudy: the whole case study with paper references
package emgo
