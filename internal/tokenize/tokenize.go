// Package tokenize provides the tokenizers and string normalization used
// throughout the EM pipeline: whitespace and word (alphanumeric) tokenizers
// for overlap blocking and set similarities, q-gram tokenizers for
// character-level similarities, and the lowercasing / punctuation-stripping
// normalization applied before blocking in Section 7 of the case study.
package tokenize

import (
	"cmp"
	"slices"
	"strings"
	"unicode"
)

// Tokenizer splits a string into tokens.
type Tokenizer interface {
	// Tokens returns the token sequence of s (duplicates preserved).
	Tokens(s string) []string
	// Name identifies the tokenizer, e.g. for feature naming ("word",
	// "qgram3").
	Name() string
}

// Whitespace tokenizes on runs of Unicode whitespace.
type Whitespace struct{}

// Tokens implements Tokenizer.
func (Whitespace) Tokens(s string) []string { return strings.Fields(s) }

// Name implements Tokenizer.
func (Whitespace) Name() string { return "ws" }

// Word tokenizes into maximal runs of letters and digits; everything else
// is a separator. This is the "word-level tokenizer" of Section 7.
type Word struct{}

// Tokens implements Tokenizer. The words collect on the stack and leave as
// one allocation of their number, not a nil slice grown token by token.
func (Word) Tokens(s string) []string {
	var buf [16]string
	toks, start := buf[:0], -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, s[start:])
	}
	return append([]string(nil), toks...)
}

// Name implements Tokenizer.
func (Word) Name() string { return "word" }

// QGram tokenizes into overlapping character q-grams. When Pad is true the
// string is padded with q-1 '#' markers on the left and q-1 '$' markers on
// the right (the usual convention for edit-distance-style filtering);
// otherwise plain sliding windows are used and strings shorter than Q yield
// a single token of the whole string.
type QGram struct {
	Q   int
	Pad bool
}

func (g QGram) q() int {
	if g.Q <= 0 {
		return 3
	}
	return g.Q
}

// Tokens implements Tokenizer.
func (g QGram) Tokens(s string) []string {
	q := g.q()
	runes := []rune(s)
	if g.Pad {
		pad := make([]rune, 0, len(runes)+2*(q-1))
		for i := 0; i < q-1; i++ {
			pad = append(pad, '#')
		}
		pad = append(pad, runes...)
		for i := 0; i < q-1; i++ {
			pad = append(pad, '$')
		}
		runes = pad
	}
	if len(runes) == 0 {
		return nil
	}
	if len(runes) < q {
		return []string{string(runes)}
	}
	out := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		out = append(out, string(runes[i:i+q]))
	}
	return out
}

// Name implements Tokenizer.
func (g QGram) Name() string {
	name := "qgram" + itoa(g.q())
	if g.Pad {
		name += "p"
	}
	return name
}

// Packs reports whether every token of g fits one integer key: unpadded
// grams of at most three runes, 21 bits (any rune plus one) apiece.
func (g QGram) Packs() bool { return !g.Pad && g.q() <= 3 }

// AppendKeys appends one key per token Tokens(s) would return, in order,
// without building the tokens: a gram's key is its runes, each plus one,
// packed — so two keys are equal exactly when their grams are, and the
// one token of a string shorter than q, slots to spare, equals no full
// gram's. With lower, s is read as Lower(s), rune by rune and uncopied.
func (g QGram) AppendKeys(dst []uint64, s string, lower bool) []uint64 {
	if !g.Packs() {
		panic("tokenize: AppendKeys on " + g.Name() + ", whose grams do not pack")
	}
	q, key, n := g.q(), uint64(0), 0
	for _, r := range s {
		if lower {
			r = unicode.ToLower(r)
		}
		key = (key<<21 | uint64(r+1)) & (1<<(21*q) - 1)
		if n++; n >= q {
			dst = append(dst, key)
		}
	}
	if 0 < n && n < q {
		dst = append(dst, key)
	}
	return dst
}

// Delimiter tokenizes on any of the runes in Delims.
type Delimiter struct {
	Delims string
}

// Tokens implements Tokenizer.
func (d Delimiter) Tokens(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(d.Delims, r)
	})
}

// Name implements Tokenizer.
func (d Delimiter) Name() string { return "delim" }

// itoa is a tiny positive-int formatter to avoid importing strconv for one
// call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Lower lowercases s (the case normalization of Section 7).
func Lower(s string) string { return strings.ToLower(s) }

// StripSpecial removes the special characters listed in Section 7
// (quotation marks, hash symbols, exclamation marks, braces, and similar
// punctuation), replacing them with spaces so tokens do not fuse.
func StripSpecial(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch r {
		case '\'', '"', '#', '!', '(', ')', '{', '}', '[', ']', '`',
			'*', '?', ';', ':', '%', '&', '@', '^', '~', '|', '\\', '/':
			b.WriteByte(' ')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Normalize applies the Section 7 pre-blocking normalization: lowercase
// then strip special characters.
func Normalize(s string) string { return StripSpecial(Lower(s)) }

// Set returns the distinct tokens of toks as a set.
func Set(toks []string) map[string]struct{} {
	out := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		out[t] = struct{}{}
	}
	return out
}

// SortedSet returns the distinct tokens in lexicographic order, the form
// simfunc.SortedIntersectionSize merges; toks is left untouched.
func SortedSet(toks []string) []string {
	return SortDistinct(append(make([]string, 0, len(toks)), toks...))
}

// SortDistinct sorts toks in place and returns its distinct prefix — the
// SortedSet of a slice the caller owns, without the copy; toks are token
// strings or integer token keys.
func SortDistinct[T cmp.Ordered](toks []T) []T {
	slices.Sort(toks)
	return slices.Compact(toks)
}
