package ml

import (
	"fmt"
	"math"
)

// NaiveBayes is a Gaussian naive Bayes matcher: per class and feature it
// fits a normal density and classifies by maximum posterior.
type NaiveBayes struct {
	prior [2]float64   // log priors
	mean  [2][]float64 // per class, per feature
	vari  [2][]float64 // per class, per feature (variance, smoothed)
	fit   bool
}

// varianceFloor keeps degenerate (constant) features from producing zero
// variance and infinite densities.
const varianceFloor = 1e-9

// Name implements Matcher.
func (m *NaiveBayes) Name() string { return "naive_bayes" }

// Fit implements Matcher.
func (m *NaiveBayes) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: naive bayes: empty dataset")
	}
	nf := ds.NumFeatures()
	var count [2]int
	for c := 0; c < 2; c++ {
		m.mean[c] = make([]float64, nf)
		m.vari[c] = make([]float64, nf)
	}
	for i := 0; i < ds.Len(); i++ {
		c := ds.label(i)
		count[c]++
		for j, v := range ds.row(i) {
			m.mean[c][j] += v
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			// Degenerate one-class training set: give the absent class a
			// vanishing prior so prediction still works.
			m.prior[c] = math.Inf(-1)
			continue
		}
		m.prior[c] = math.Log(float64(count[c]) / float64(ds.Len()))
		for j := range m.mean[c] {
			m.mean[c][j] /= float64(count[c])
		}
	}
	for i := 0; i < ds.Len(); i++ {
		c := ds.label(i)
		for j, v := range ds.row(i) {
			d := v - m.mean[c][j]
			m.vari[c][j] += d * d
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			continue
		}
		for j := range m.vari[c] {
			m.vari[c][j] = m.vari[c][j]/float64(count[c]) + varianceFloor
		}
	}
	m.fit = true
	return nil
}

// logLikelihood returns the class-conditional log density of x plus the
// class log prior.
func (m *NaiveBayes) logLikelihood(c int, x []float64) float64 {
	ll := m.prior[c]
	if math.IsInf(ll, -1) {
		return ll
	}
	for j, v := range x {
		d := v - m.mean[c][j]
		ll += -0.5*math.Log(2*math.Pi*m.vari[c][j]) - d*d/(2*m.vari[c][j])
	}
	return ll
}

// Proba implements ProbabilisticMatcher.
func (m *NaiveBayes) Proba(x []float64) float64 {
	if !m.fit {
		panic("ml: naive bayes used before Fit")
	}
	l0 := m.logLikelihood(0, x)
	l1 := m.logLikelihood(1, x)
	if math.IsInf(l1, -1) {
		return 0
	}
	if math.IsInf(l0, -1) {
		return 1
	}
	// Stable softmax over two log scores.
	mx := math.Max(l0, l1)
	e0 := math.Exp(l0 - mx)
	e1 := math.Exp(l1 - mx)
	return e1 / (e0 + e1)
}

// Predict implements Matcher.
func (m *NaiveBayes) Predict(x []float64) int {
	if m.Proba(x) >= 0.5 {
		return 1
	}
	return 0
}
