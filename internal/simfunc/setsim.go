package simfunc

import (
	"cmp"
	"math"
)

// set materializes the distinct tokens of toks.
func set(toks []string) map[string]struct{} {
	s := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		s[t] = struct{}{}
	}
	return s
}

// intersectionSize returns |set(a) ∩ set(b)| with the two set sizes.
func intersectionSize(a, b []string) (inter, sizeA, sizeB int) {
	sa, sb := set(a), set(b)
	sizeA, sizeB = len(sa), len(sb)
	// Probe the larger set with the smaller; the sizes were read before
	// the swap so they stay on their own side.
	if len(sa) > len(sb) {
		sa, sb = sb, sa
	}
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	return inter, sizeA, sizeB
}

// SortedIntersectionSize returns |A ∩ B| for two token sets given as
// sorted distinct slices — integer token keys ascending, which is how
// feature vectorization prepares every cell, or token strings in
// tokenize.SortedSet order — by one merge pass: no map, no allocation.
func SortedIntersectionSize[T cmp.Ordered](a, b []T) int {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// The set similarities are functions of three counts only — |A∩B|, |A|
// and |B| over distinct tokens. Each has a *Sizes form taking the counts,
// so a caller that already holds them (feature vectorization over
// prepared cells) computes the identical float without rebuilding sets.

// Jaccard returns |A∩B| / |A∪B| over the distinct tokens. Two empty sets
// are fully similar.
func Jaccard(a, b []string) float64 { return JaccardSizes(intersectionSize(a, b)) }

// JaccardSizes is Jaccard from |A∩B|, |A| and |B|.
func JaccardSizes(inter, la, lb int) float64 {
	union := la + lb - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// OverlapSize returns |A∩B|: the raw shared-token count the overlap
// blocker thresholds on (Section 7 step 2).
func OverlapSize(a, b []string) int {
	inter, _, _ := intersectionSize(a, b)
	return inter
}

// OverlapCoefficient returns |A∩B| / min(|A|, |B|) (Section 7 step 3).
// Two empty sets are fully similar; one empty set scores 0.
func OverlapCoefficient(a, b []string) float64 {
	return OverlapCoefficientSizes(intersectionSize(a, b))
}

// OverlapCoefficientSizes is OverlapCoefficient from |A∩B|, |A| and |B|.
func OverlapCoefficientSizes(inter, la, lb int) float64 {
	m := la
	if lb < m {
		m = lb
	}
	if m == 0 {
		if la == 0 && lb == 0 {
			return 1
		}
		return 0
	}
	return float64(inter) / float64(m)
}

// Dice returns 2|A∩B| / (|A|+|B|).
func Dice(a, b []string) float64 { return DiceSizes(intersectionSize(a, b)) }

// DiceSizes is Dice from |A∩B|, |A| and |B|.
func DiceSizes(inter, la, lb int) float64 {
	if la+lb == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(la+lb)
}

// Cosine returns |A∩B| / sqrt(|A|·|B|) over distinct tokens (set cosine).
func Cosine(a, b []string) float64 { return CosineSizes(intersectionSize(a, b)) }

// CosineSizes is Cosine from |A∩B|, |A| and |B|.
func CosineSizes(inter, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(la)*float64(lb))
}

// MongeElkan returns the Monge-Elkan similarity: for each token of a, the
// best Jaro-Winkler match in b, averaged. It is asymmetric; callers wanting
// symmetry should average both directions. Empty a scores 0 against
// non-empty b; two empties score 1.
func MongeElkan(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := JaroWinkler(ta, tb); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}
