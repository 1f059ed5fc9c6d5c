package ml

import (
	"fmt"
	"math"
)

// standardizer rescales features to zero mean / unit variance; the linear
// models fit it on training data and apply it at prediction time so
// features with large ranges (e.g. year differences) do not dominate.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(ds *Dataset) *standardizer {
	nf := ds.NumFeatures()
	s := &standardizer{mean: make([]float64, nf), std: make([]float64, nf)}
	for j := 0; j < nf; j++ {
		var sum float64
		for i := 0; i < ds.Len(); i++ {
			sum += ds.row(i)[j]
		}
		m := sum / float64(ds.Len())
		var ss float64
		for i := 0; i < ds.Len(); i++ {
			d := ds.row(i)[j] - m
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(ds.Len()))
		if sd == 0 {
			sd = 1
		}
		s.mean[j] = m
		s.std[j] = sd
	}
	return s
}

// matrix returns ds's rows standardized, in one row-major array: row i is
// rows[i*nf : (i+1)*nf] for nf features.
func (s *standardizer) matrix(ds *Dataset) (rows []float64, nf int) {
	nf = len(s.mean)
	rows = make([]float64, ds.Len()*nf)
	for i := 0; i < ds.Len(); i++ {
		for j, v := range ds.row(i)[:nf] {
			rows[i*nf+j] = (v - s.mean[j]) / s.std[j]
		}
	}
	return rows, nf
}

// dot is w·x over x standardized, Σ w_j·((x_j−mean_j)/std_j), summed in
// the order dot sums a standardized copy — without making one.
func (s *standardizer) dot(w, x []float64) float64 {
	var sum float64
	for j := range w {
		sum += w[j] * ((x[j] - s.mean[j]) / s.std[j])
	}
	return sum
}

// LogisticRegression is an L2-regularized logistic-regression matcher
// trained with gradient descent.
type LogisticRegression struct {
	// Epochs is the number of full gradient-descent passes (default 200).
	Epochs int
	// LearningRate is the step size (default 0.1).
	LearningRate float64
	// L2 is the weights' regularization strength: 0 means 1e-3, < 0 none.
	L2 float64

	w     []float64
	bias  float64
	scale *standardizer
}

// Name implements Matcher.
func (m *LogisticRegression) Name() string { return "logistic_regression" }

// Fit implements Matcher.
func (m *LogisticRegression) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: logistic regression: empty dataset")
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	l2 := m.L2
	if l2 < 0 {
		l2 = 0
	} else if m.L2 == 0 {
		l2 = 1e-3
	}
	m.scale = fitStandardizer(ds)
	x, nf := m.scale.matrix(ds)
	m.w = make([]float64, nf)
	m.bias = 0
	n := float64(ds.Len())
	gw := make([]float64, nf)
	for e := 0; e < epochs; e++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i := 0; i < ds.Len(); i++ {
			xi := x[i*nf : (i+1)*nf]
			p := sigmoid(dot(m.w, xi) + m.bias)
			err := p - float64(ds.label(i))
			for j := range gw {
				gw[j] += err * xi[j]
			}
			gb += err
		}
		for j := range m.w {
			m.w[j] -= lr * (gw[j]/n + l2*m.w[j])
		}
		m.bias -= lr * gb / n
	}
	return nil
}

// Proba implements ProbabilisticMatcher.
func (m *LogisticRegression) Proba(x []float64) float64 {
	if m.w == nil {
		panic("ml: logistic regression used before Fit")
	}
	return sigmoid(m.scale.dot(m.w, x) + m.bias)
}

// Predict implements Matcher.
func (m *LogisticRegression) Predict(x []float64) int {
	if m.Proba(x) >= 0.5 {
		return 1
	}
	return 0
}

// LinearRegression fits least squares by gradient descent and classifies
// by thresholding the regression output at 0.5 — the "linear regression
// matcher" PyMatcher exposes.
type LinearRegression struct {
	// Epochs is the number of gradient passes (default 200).
	Epochs int
	// LearningRate is the step size (default 0.1).
	LearningRate float64

	w     []float64
	bias  float64
	scale *standardizer
}

// Name implements Matcher.
func (m *LinearRegression) Name() string { return "linear_regression" }

// Fit implements Matcher.
func (m *LinearRegression) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: linear regression: empty dataset")
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := m.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	m.scale = fitStandardizer(ds)
	// The gradient reads the standardized rows x_i only through
	// G = Σ x_i x_iᵀ, the column sums s, Xᵀy and Σy (gw = G·w + b·s − Xᵀy,
	// gb = s·w + n·b − Σy): one pass gathers them; an epoch costs d², not n·d.
	nf := ds.NumFeatures()
	gram, vecs := make([]float64, nf*nf), make([]float64, 4*nf)
	sum, xy, xi, gw := vecs[:nf], vecs[nf:2*nf], vecs[2*nf:3*nf], vecs[3*nf:]
	var sy float64
	for i := 0; i < ds.Len(); i++ {
		for j, v := range ds.row(i)[:nf] {
			xi[j] = (v - m.scale.mean[j]) / m.scale.std[j]
		}
		y := float64(ds.label(i))
		for j, a := range xi {
			sum[j] += a
			xy[j] += a * y
			for k, b := range xi {
				gram[j*nf+k] += a * b
			}
		}
		sy += y
	}
	m.w, m.bias = make([]float64, nf), 0
	n := float64(ds.Len())
	for e := 0; e < epochs; e++ {
		for j := range gw {
			gw[j] = dot(gram[j*nf:(j+1)*nf], m.w) + m.bias*sum[j] - xy[j]
		}
		gb := dot(sum, m.w) + n*m.bias - sy
		for j := range m.w {
			m.w[j] -= lr * gw[j] / n
		}
		m.bias -= lr * gb / n
	}
	return nil
}

// Score returns the raw regression output.
func (m *LinearRegression) Score(x []float64) float64 {
	if m.w == nil {
		panic("ml: linear regression used before Fit")
	}
	return m.scale.dot(m.w, x) + m.bias
}

// Predict implements Matcher.
func (m *LinearRegression) Predict(x []float64) int {
	if m.Score(x) >= 0.5 {
		return 1
	}
	return 0
}

// SVM is a linear support-vector machine trained with the Pegasos
// stochastic sub-gradient algorithm.
type SVM struct {
	// Epochs is the number of passes over the data (default 50).
	Epochs int
	// Lambda is the regularization strength (default 1e-3).
	Lambda float64
	// Seed drives the example order.
	Seed int64

	w     []float64
	bias  float64
	scale *standardizer
}

// Name implements Matcher.
func (m *SVM) Name() string { return "svm" }

// Fit implements Matcher.
func (m *SVM) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: svm: empty dataset")
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 50
	}
	lambda := m.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	m.scale = fitStandardizer(ds)
	x, nf := m.scale.matrix(ds)
	m.w = make([]float64, nf)
	m.bias = 0
	rng := seededRand(ds, m.Seed)
	defer randPool.Put(rng)
	t := 0
	order := rng.Perm(ds.Len())
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			t++
			xi := x[i*nf : (i+1)*nf]
			eta := 1 / (lambda * float64(t))
			yi := float64(2*ds.label(i) - 1) // {-1,+1}
			margin := yi * (dot(m.w, xi) + m.bias)
			for j := range m.w {
				m.w[j] *= 1 - eta*lambda
			}
			if margin < 1 {
				for j := range m.w {
					m.w[j] += eta * yi * xi[j]
				}
				m.bias += eta * yi
			}
		}
	}
	return nil
}

// Margin returns the signed distance proxy w·x + b.
func (m *SVM) Margin(x []float64) float64 {
	if m.w == nil {
		panic("ml: svm used before Fit")
	}
	return m.scale.dot(m.w, x) + m.bias
}

// Predict implements Matcher.
func (m *SVM) Predict(x []float64) int {
	if m.Margin(x) >= 0 {
		return 1
	}
	return 0
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
