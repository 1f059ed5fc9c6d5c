package surface

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const traceDispositions = `
A span name, span annotation or wide-event field has a reader
when one of these holds:
  T0  it names a span: a row of "emmonitor diff" (a run's tree, root included),
      a key of a wide event's "stages", or the request root those stages hang from;
  T1  it is a wide-event field non-test code reads (the access log's
      sampling rule);
  T2  a _test.go outside internal/obs spells it - for an annotation key, a
      test file that also reads a span's attrs;
  T3  traceReaders (allowlist_test.go) gives the operator question it answers
      and the docs section whose recipe uses it.
A name that has none restates what the wide event or a stage span
already says: delete it with the line that writes it.`

// TestSpanAndEventNamesHaveReaders holds the telemetry vocabulary to the
// rule the exports are held to — span names, span annotations, and the
// fields of the wide event each have a reader.
func TestSpanAndEventNamesHaveReaders(t *testing.T) {
	m := loadModule(t)
	names := m.traceWrites(t)
	names = append(names, m.wideEventFields(t)...)
	tests := m.testWords(t)

	seen := map[string]bool{}
	byKind := map[string]int{}
	var orphans []string
	for _, n := range names {
		id := n.kind + " " + n.name
		if seen[id] {
			continue
		}
		seen[id] = true
		byKind[n.kind]++
		rule := n.rule
		if rule == "" && n.in(tests, n.kind == "annotation") {
			rule = "T2"
		}
		r, allowed := traceReaders[id]
		switch {
		case rule != "" && allowed:
			t.Errorf("traceReaders entry %q is stale: the name has a %s reader now; drop the entry", id, rule)
		case rule == "" && !allowed:
			orphans = append(orphans, id+"\n\twritten at "+n.site)
		case allowed:
			if strings.TrimSpace(r.question) == "" {
				t.Errorf("traceReaders entry %q carries no question", id)
			}
			if section, err := docSection(m.root, r.recipe); err != nil {
				t.Errorf("traceReaders entry %q: %v", id, err)
			} else if !wordsOf(section)[n.name] {
				t.Errorf("traceReaders entry %q: the section at %s does not mention %s", id, r.recipe, n.name)
			}
		}
	}
	for id := range traceReaders {
		if !seen[id] {
			t.Errorf("traceReaders entry %q names nothing the code writes; drop the entry", id)
		}
	}
	if len(traceReaders) > 8 {
		t.Errorf("traceReaders has %d entries, the cap is 8: a name whose only reader is a person is the exception", len(traceReaders))
	}
	t.Logf("%d span names, %d annotation keys, %d wide-event fields checked, %d allowlisted",
		byKind["span"], byKind["annotation"], byKind["field"], len(traceReaders))
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d name(s) of the trace and wide-event vocabulary have no reader:\n\n%s\n%s", len(orphans), strings.Join(orphans, "\n"), traceDispositions)
	}
}

// traceName is one name the code writes into a span tree or a wide event.
type traceName struct {
	kind string // span, annotation, field
	name string // the literal; for a span, possibly the literal head of a concatenation ("stage.")
	rule string // the reader the scan itself establishes (T0, T1), if any
	site string
}

// in reports whether the tests spell the name; tree narrows that to the
// test files that read a span's attrs at all.
func (n traceName) in(tests []testWords, tree bool) bool {
	for _, f := range tests {
		if tree && !f.tree {
			continue
		}
		if f.words[n.name] {
			return true
		}
	}
	return false
}

// traceWrites finds every span name (obs.StartSpan, obs.NewTrace) and
// annotation key ((*Span).Annotate) non-test code outside package obs
// writes.
func (m *module) traceWrites(t *testing.T) []traceName {
	nameArg := map[string]struct {
		kind string
		arg  int
	}{
		"StartSpan": {"span", 1}, "NewTrace": {"span", 1},
		"Annotate": {"annotation", 0},
	}
	var out []traceName
	for _, p := range m.sorted() {
		if p.path == "emgo/internal/obs" || p.path == harness || strings.HasPrefix(p.path, "emgo/bench") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.callee(call)
				if fn == nil || fn.Pkg().Name() != "obs" {
					return true
				}
				w, ok := nameArg[fn.Name()]
				if !ok || len(call.Args) <= w.arg {
					return true
				}
				site := m.at(call.Pos())
				name, whole, ok := p.literalHead(call.Args[w.arg])
				if !ok || !whole && w.kind != "span" {
					// A run's root named by its caller is the report's own name.
					if fn.Name() != "NewTrace" || p.path == "emgo/internal/serve" {
						t.Errorf("%s: the %s name is not a literal (a span's may be a concatenation starting with one): the scan cannot check it", site, w.kind)
					}
					return true
				}
				tn := traceName{kind: w.kind, name: name, site: site}
				if w.kind == "span" {
					tn.rule = "T0"
				}
				out = append(out, tn)
				return true
			})
		}
	}
	return out
}

// wideEventFields lists the json keys of obs.WideEvent; a field non-test
// code reads — anywhere but the encoder that renders it — has its reader.
func (m *module) wideEventFields(t *testing.T) []traceName {
	obsPkg := m.pkgs["emgo/internal/obs"]
	st, ok := obsPkg.types.Scope().Lookup("WideEvent").Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatal("obs.WideEvent is not a struct")
	}
	read := map[types.Object]bool{}
	for _, p := range m.pkgs {
		if p.path == harness {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "appendJSON" && p == obsPkg {
					continue
				}
				writes := map[*ast.Ident]bool{}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								writes[sel.Sel] = true
							}
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
					return true
				})
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && !writes[id] {
						if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
							read[v.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []traceName
	for i := 0; i < st.NumFields(); i++ {
		key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		tn := traceName{kind: "field", name: key, site: m.at(st.Field(i).Pos())}
		if read[st.Field(i)] {
			tn.rule = "T1"
		}
		out = append(out, tn)
	}
	return out
}

// testWords is the words one test file's string literals spell; tree
// marks a file that reads a span's annotations — it selects .Attrs, or
// spells the "attrs" key of the JSON form.
type testWords struct {
	words map[string]bool
	tree  bool
}

var nameWord = regexp.MustCompile(`[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*\.?`)

func wordsOf(s string) map[string]bool {
	words := map[string]bool{}
	for _, w := range nameWord.FindAllString(s, -1) {
		words[w] = true
		words[strings.TrimSuffix(w, ".")] = true
		for _, part := range strings.Split(w, ".") { // `attrs.blocker` spells blocker
			words[part] = true
		}
	}
	return words
}

// testWords reads the module's test files outside internal/obs (whose
// tests exercise spans with names of their own), this package and bench/.
func (m *module) testWords(t *testing.T) []testWords {
	var out []testWords
	for path, dir := range m.dirs {
		if strings.HasPrefix(path, "emgo/bench") || path == "emgo/internal/surface" ||
			path == "emgo/internal/obs" || strings.HasPrefix(path, "emgo/internal/obs/") {
			continue
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			tw := testWords{words: map[string]bool{}}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					tw.tree = tw.tree || n.Sel.Name == "Attrs"
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
						words := wordsOf(s)
						for w := range words {
							tw.words[w] = true
						}
						tw.tree = tw.tree || words["attrs"]
					}
				}
				return true
			})
			out = append(out, tw)
		}
	}
	return out
}
