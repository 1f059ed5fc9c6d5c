package feature

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unicode/utf8"

	"emgo/internal/table"
)

// keyProperties is what a registry key promises of its value on two
// non-null cells: the range it lies in, what it is for a cell against
// itself, and whether the order of the two cells matters.
type keyProperties struct {
	lo, hi     float64
	self       func(a table.Value) float64
	asymmetric bool
}

func always(v float64) func(table.Value) float64 {
	return func(table.Value) float64 { return v }
}

var (
	// A similarity is 1 for a cell against itself and never leaves [0, 1].
	similarityKey = keyProperties{lo: 0, hi: 1, self: always(1)}
	// A difference is 0 for a cell against itself and never negative.
	differenceKey = keyProperties{lo: 0, hi: math.Inf(1), self: always(0)}
)

// registryProperties states the properties of every key of
// computeRegistry; the keys that are not plain symmetric similarities are
// listed here, not discovered.
var registryProperties = map[string]keyProperties{
	"lev_sim":                  similarityKey,
	"jaro":                     similarityKey,
	"jaro_winkler":             similarityKey,
	"exact":                    similarityKey,
	"exact_fold":               similarityKey,
	"jaccard_qgram3":           similarityKey,
	"jaccard_word":             similarityKey,
	"cosine_word":              similarityKey,
	"dice_word":                similarityKey,
	"overlap_coeff_word":       similarityKey,
	"jaccard_word_lower":       similarityKey,
	"jaccard_qgram3_lower":     similarityKey,
	"exact_num":                similarityKey,
	"year_exact":               similarityKey,
	"generalized_jaccard_word": similarityKey,
	"prefix_sim":               similarityKey,
	"abs_diff":                 differenceKey,
	"rel_diff":                 differenceKey,
	"year_diff":                differenceKey,
	// Each token of a is scored against its best match in b, so the two
	// directions average over different token lists.
	"monge_elkan": {lo: 0, hi: 1, self: always(1), asymmetric: true},
	// A raw alignment score: +1 a matched rune, penalties below zero, so
	// a cell aligned with itself scores its length in runes.
	"affine_gap": {lo: math.Inf(-1), hi: math.Inf(1), self: func(a table.Value) float64 {
		return float64(utf8.RuneCountInString(a.Str()))
	}},
}

// propertyCells returns the cells a key is tried on, every pair of them:
// the hard and adversarial-Unicode texts plus seeded random strings over
// an alphabet of words, separators, multi-byte runes and broken UTF-8 for
// a string key; zeros, signs, fractions and magnitudes for a numeric one;
// years either side of the epoch for a date.
func propertyCells(key string, rng *rand.Rand) []table.Value {
	var cells []table.Value
	switch columnFor(key) {
	case "N":
		for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.00, 2.5e-300, -7.5, 1 << 53, 1e300, -1e300, math.MaxFloat64} {
			cells = append(cells, table.F(v))
		}
		for i := 0; i < 12; i++ {
			cells = append(cells, table.F(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4))))
		}
	case "D":
		for _, y := range []int{1, 1899, 1969, 1970, 2008, 2008, 9999} {
			cells = append(cells, table.D(time.Date(y, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)))
		}
	default:
		for _, s := range gramCells {
			cells = append(cells, table.S(s))
		}
		alphabet := []string{"corn", "Corn", "CORN", "rust", "a", "é", "İ", "ß", "東京", "😀", "\xff", "\xf0\x9f", "\x00", " ", " ", "  ", "-", ";", "(", "#"}
		for i := 0; i < 24; i++ {
			s := ""
			for n := rng.Intn(9); n > 0; n-- {
				s += alphabet[rng.Intn(len(alphabet))]
			}
			cells = append(cells, table.S(s))
		}
	}
	return cells
}

// TestRegistryKeyProperties: every key of the registry, on every pair of
// its property cells and a null, is NaN exactly when a side is null, and
// otherwise lies in the key's stated range, has the key's identity value
// for a cell against itself, and reads the same in both directions unless
// the table says the key is asymmetric.
func TestRegistryKeyProperties(t *testing.T) {
	for key := range registryProperties {
		if _, ok := computeRegistry[key]; !ok {
			t.Errorf("registryProperties lists %q, which the registry lacks", key)
		}
	}
	for _, key := range registryKeys() {
		want, ok := registryProperties[key]
		if !ok {
			t.Errorf("registry key %q has no stated properties: add it to registryProperties", key)
			continue
		}
		f := computeRegistry[key].compute
		cells := propertyCells(key, rand.New(rand.NewSource(25)))
		null := table.Null(cells[0].Kind())
		if v := f(null, null); !math.IsNaN(v) {
			t.Errorf("%s(null, null) = %v, want NaN", key, v)
		}
		for _, a := range cells {
			if l, r := f(null, a), f(a, null); !math.IsNaN(l) || !math.IsNaN(r) {
				t.Errorf("%s of %q and a null = %v, %v, want NaN both ways", key, a.Str(), l, r)
			}
			if got, want := f(a, a), want.self(a); got != want {
				t.Errorf("%s(%q, itself) = %v, want %v", key, a.Str(), got, want)
			}
			for _, b := range cells {
				v := f(a, b)
				if math.IsNaN(v) || v < want.lo || v > want.hi {
					t.Errorf("%s(%q, %q) = %v, outside [%v, %v]", key, a.Str(), b.Str(), v, want.lo, want.hi)
				}
				// The same terms summed in the other order may round apart.
				if back := f(b, a); !want.asymmetric && math.Abs(v-back) > 1e-12*math.Max(1, math.Abs(v)) {
					t.Errorf("%s(%q, %q) = %v but %v the other way round", key, a.Str(), b.Str(), v, back)
				}
			}
		}
	}
}
