package ml

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse tallies predictions against gold labels.
func Confuse(gold, pred []int) (Confusion, error) {
	if len(gold) != len(pred) {
		return Confusion{}, fmt.Errorf("ml: %d gold labels vs %d predictions", len(gold), len(pred))
	}
	var c Confusion
	for i := range gold {
		c.add(gold[i], pred[i])
	}
	return c, nil
}

// add tallies one prediction against its gold label.
func (c *Confusion) add(gold, pred int) {
	switch {
	case gold == 1 && pred == 1:
		c.TP++
	case gold == 0 && pred == 1:
		c.FP++
	case gold == 0 && pred == 0:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP/(TP+FP); 1 when there are no predicted positives
// (vacuous precision, the convention the IRIS comparison relies on).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 1 when there are no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall (0 when both are 0).
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d P=%.3f R=%.3f F1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}
