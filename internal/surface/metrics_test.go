package surface

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const metricDispositions = `
A metric has a reader when one of these holds:
  R0  it is a counter or histogram written outside internal/serve and
      internal/obs, so every -report run carries it and emmonitor diff compares it;
  R1  non-test code, bench/ or the smoke harness uses the name somewhere other
      than the write (it is read back);
  R2  a _test.go outside internal/obs asserts on it: the counter is how that
      test sees the behaviour;
  R3  metricReaders (allowlist_test.go) gives the operator question it answers
      and the docs recipe that uses it.
A name that has none restates something a wide event, /v1/status, a job
status or a listing already says: delete it with the line that feeds it.`

// TestMetricNamesHaveReaders holds telemetry to the rule the exports are
// held to: every metric name the code writes has a reader, the "Metric
// names" table of docs/OBSERVABILITY.md is exactly the set written, and
// every fault site is armed by some test and listed in fault.go.
func TestMetricNamesHaveReaders(t *testing.T) {
	m := loadModule(t)
	writes, elsewhere := m.metricWrites(t)
	tests := m.testFiles(t)

	var names []string
	for name := range writes {
		names = append(names, name)
	}
	sort.Strings(names)

	var orphans []string
	for _, name := range names {
		w := writes[name]
		var rule string
		switch {
		case (w.kind == "counter" || w.kind == "histogram") && !w.serving:
			rule = "R0"
		case w.in(elsewhere):
			rule = "R1"
		case w.in(tests.literals):
			rule = "R2"
		}
		r, allowed := metricReaders[name]
		switch {
		case rule != "" && allowed:
			t.Errorf("metricReaders entry %s is stale: the name has an %s reader now; drop the entry", name, rule)
		case rule == "" && !allowed:
			orphans = append(orphans, name+" ("+w.kind+")\n\twritten at "+w.site)
		case allowed:
			if strings.TrimSpace(r.question) == "" {
				t.Errorf("metricReaders entry %s carries no question", name)
			}
			if section, err := docSection(m.root, r.recipe); err != nil {
				t.Errorf("metricReaders entry %s: %v", name, err)
			} else if !strings.Contains(section, "`"+name+"`") {
				t.Errorf("metricReaders entry %s: the recipe at %s does not mention the name", name, r.recipe)
			}
		}
	}
	for name := range metricReaders {
		if _, ok := writes[name]; !ok {
			t.Errorf("metricReaders entry %s names a metric nothing writes; drop the entry", name)
		}
	}
	if len(metricReaders) > 12 {
		t.Errorf("metricReaders has %d entries, the cap is 12: a metric whose only reader is a person is the exception", len(metricReaders))
	}
	if len(orphans) > 0 {
		t.Errorf("%d metric name(s) have no reader:\n\n%s\n%s", len(orphans), strings.Join(orphans, "\n"), metricDispositions)
	}

	rows, err := metricRows(m.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		row := writes[name].row(rows)
		if row == "" {
			t.Errorf("docs/OBSERVABILITY.md \"Metric names\" has no row for %s", name)
		}
		delete(rows, row)
	}
	for row := range rows {
		t.Errorf("docs/OBSERVABILITY.md \"Metric names\" row `%s` names a metric nothing writes", row)
	}

	sites := m.faultSites(t)
	listed := m.faultDocList(t)
	for site, pos := range sites {
		if !tests.armed[site] {
			t.Errorf("fault site %q (%s) is armed by no test: arm it with fault.Enable where its recovery path is asserted, or delete the hook", site, pos)
		}
		if !listed[site] {
			t.Errorf("fault site %q (%s) is missing from the \"Known sites\" list in internal/fault/fault.go", site, pos)
		}
	}
	for site := range listed {
		if _, ok := sites[site]; !ok {
			t.Errorf("internal/fault/fault.go lists site %q, which no code passes", site)
		}
	}
	t.Logf("%d metric names checked, %d allowlisted, %d fault sites checked", len(names), len(metricReaders), len(sites))
}

// metricWrite is one name the code hands to the registry.
type metricWrite struct {
	name    string // the literal, or the literal head of a concatenation
	prefix  bool   // the rest of the name is built at run time
	kind    string // counter, histogram: the handle type's name
	serving bool   // written by internal/serve or internal/obs: no run report carries it
	site    string // the first write, file:line
}

// row picks the name's row of the docs table: the name itself, or for a
// name finished at run time its literal head followed by a <placeholder>.
func (w metricWrite) row(rows map[string]bool) string {
	for row := range rows {
		if head, _, open := strings.Cut(row, "<"); row == w.name && !w.prefix || open && w.prefix && head == w.name {
			return row
		}
	}
	return ""
}

// in reports whether some string literal of the set is the name (or, for
// a name finished at run time, starts with its literal head).
func (w metricWrite) in(literals map[string]bool) bool {
	if !w.prefix {
		return literals[w.name]
	}
	for l := range literals {
		if strings.HasPrefix(l, w.name) {
			return true
		}
	}
	return false
}

// callee resolves a call to the function of package obs or fault it
// names (nil for any other call).
func (p *pkg) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident: // inside the package itself
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "emgo/internal/obs" && fn.Pkg().Path() != "emgo/internal/fault" {
		return nil
	}
	return fn
}

// handleKinds maps each handle type the Registry stores by name — the
// element types of its map fields — to its kind: "counter", "histogram".
func (m *module) handleKinds(t *testing.T) map[types.Type]string {
	kinds := map[types.Type]string{}
	reg, ok := m.pkgs["emgo/internal/obs"].types.Scope().Lookup("Registry").Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatal("obs.Registry is not a struct")
	}
	for i := 0; i < reg.NumFields(); i++ {
		if byName, ok := reg.Field(i).Type().(*types.Map); ok {
			if ptr, ok := byName.Elem().(*types.Pointer); ok {
				kinds[ptr] = strings.ToLower(ptr.Elem().(*types.Named).Obj().Name())
			}
		}
	}
	return kinds
}

// metricKind reports whether a call hands out one of those handles for a
// name — obs.C/H, (*Registry).Counter/Histogram — and its kind.
func (p *pkg) metricKind(call *ast.CallExpr, kinds map[types.Type]string) (string, bool) {
	fn := p.callee(call)
	if fn == nil || len(call.Args) == 0 {
		return "", false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return "", false
	}
	for handle, kind := range kinds {
		if types.Identical(handle, res.At(0).Type()) {
			return kind, true
		}
	}
	return "", false
}

// literalHead returns the string an argument starts with: a constant's
// value whole, or the leftmost literal of a concatenation.
func (p *pkg) literalHead(e ast.Expr) (s string, whole, ok bool) {
	if tv, found := p.info.Types[e]; found && tv.Value != nil {
		s, err := strconv.Unquote(tv.Value.ExactString())
		return s, true, err == nil
	}
	if b, isSum := e.(*ast.BinaryExpr); isSum && b.Op == token.ADD {
		s, _, ok = p.literalHead(b.X)
		return s, false, ok
	}
	return "", false, false
}

// metricWrites walks the loaded ASTs (non-test code of the module and
// bench/, plus the smoke harness) for every registry write, and collects
// every other string literal: the places a name can be read back.
func (m *module) metricWrites(t *testing.T) (writes map[string]metricWrite, elsewhere map[string]bool) {
	writes, elsewhere = map[string]metricWrite{}, map[string]bool{}
	kinds := m.handleKinds(t)
	for _, p := range m.sorted() {
		serving := p.path == "emgo/internal/serve" || p.path == "emgo/internal/obs" ||
			strings.HasPrefix(p.path, "emgo/internal/obs/")
		nameArgs := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, ok := p.metricKind(call, kinds)
				if !ok {
					return true
				}
				pos := m.fset.Position(call.Pos())
				file, _ := filepath.Rel(m.root, pos.Filename)
				name, whole, ok := p.literalHead(call.Args[0])
				if !ok {
					if _, passedOn := call.Args[0].(*ast.Ident); !passedOn || p.path != "emgo/internal/obs" { // obs.C/H hand their parameter to the Registry
						t.Errorf("%s:%d: the metric name is not a literal or a concatenation starting with one: the scan cannot check it", file, pos.Line)
					}
					return true
				}
				ast.Inspect(call.Args[0], func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						nameArgs[e] = true
					}
					return true
				})
				if _, seen := writes[name]; !seen {
					writes[name] = metricWrite{name: name, prefix: !whole, kind: kind, serving: serving, site: file + ":" + strconv.Itoa(pos.Line)}
				}
				return true
			})
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && !nameArgs[lit] {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						elsewhere[s] = true
					}
				}
				return true
			})
		}
	}
	return writes, elsewhere
}

// testCode is what the module's test files say, read syntactically:
// their string literals (outside internal/obs, whose tests exercise the
// registry with names of their own, and outside this package, which
// spells the allowlist) and the sites their fault.Enable calls arm.
type testCode struct {
	literals map[string]bool
	armed    map[string]bool
}

func (m *module) testFiles(t *testing.T) testCode {
	tc := testCode{literals: map[string]bool{}, armed: map[string]bool{}}
	for path, dir := range m.dirs {
		if strings.HasPrefix(path, "emgo/bench") {
			continue
		}
		countLiterals := path != "emgo/internal/surface" && path != "emgo/internal/obs" && !strings.HasPrefix(path, "emgo/internal/obs/")
		names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); countLiterals && n.Kind == token.STRING && err == nil {
						tc.literals[s] = true
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || len(n.Args) == 0 || sel.Sel.Name != "Enable" {
						break
					}
					x, isIdent := sel.X.(*ast.Ident)
					lit, isLit := n.Args[0].(*ast.BasicLit)
					if isIdent && isLit && x.Name == "fault" {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							tc.armed[s] = true
						}
					}
				}
				return true
			})
		}
	}
	return tc
}

// faultSites lists the site literal of every fault.Inject / InjectIdx
// call in non-test code, with where it is.
func (m *module) faultSites(t *testing.T) map[string]string {
	sites := map[string]string{}
	for _, p := range m.sorted() {
		if p.path == "emgo/internal/fault" { // Inject passes its parameter on
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := p.callee(call); fn == nil || fn.Pkg().Name() != "fault" || fn.Name() != "Inject" && fn.Name() != "InjectIdx" {
					return true
				}
				pos := m.fset.Position(call.Pos())
				file, _ := filepath.Rel(m.root, pos.Filename)
				site, whole, ok := p.literalHead(call.Args[0])
				if !ok || !whole {
					t.Errorf("%s:%d: the fault site is not a literal: the scan cannot check it", file, pos.Line)
					return true
				}
				sites[site] = file + ":" + strconv.Itoa(pos.Line)
				return true
			})
		}
	}
	return sites
}

var faultDocLine = regexp.MustCompile(`(?m)^//\t([a-z_.]+)  `)

// faultDocList reads the "Known sites" list of the fault package's doc
// comment (from the source: the module is loaded without comments).
func (m *module) faultDocList(t *testing.T) map[string]bool {
	src, err := os.ReadFile(filepath.Join(m.dirs["emgo/internal/fault"], "fault.go"))
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(src), "Known sites")
	if !ok {
		t.Fatal("internal/fault/fault.go's package comment has no \"Known sites\" list")
	}
	listed := map[string]bool{}
	for _, l := range faultDocLine.FindAllStringSubmatch(list, -1) {
		listed[l[1]] = true
	}
	return listed
}

var (
	mdHeading  = regexp.MustCompile(`(?m)^(#+) +(.*)$`)
	mdSlugDrop = regexp.MustCompile(`[^a-z0-9 _-]`)
	metricRow  = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
)

// docSection returns the text under the heading a "file.md#anchor"
// reference names (GitHub's slug rule), up to the next heading of the
// same or a higher level.
func docSection(root, ref string) (string, error) {
	file, anchor, ok := strings.Cut(ref, "#")
	if !ok || !strings.HasPrefix(file, "docs/") {
		return "", fmt.Errorf("%s is not a docs/FILE.md#anchor reference", ref)
	}
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return "", err
	}
	doc := string(data)
	// A "# comment" inside a fenced block is shell, not a heading: find
	// the headings in a copy with those lines blanked, offsets unchanged.
	outline, fenced, at := []byte(doc), false, 0
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		} else if fenced && strings.HasPrefix(line, "#") {
			outline[at] = ' '
		}
		at += len(line)
	}
	heads := mdHeading.FindAllStringSubmatchIndex(string(outline), -1)
	for i, h := range heads {
		level, title := h[3]-h[2], doc[h[4]:h[5]]
		slug := strings.ReplaceAll(mdSlugDrop.ReplaceAllString(strings.ToLower(title), ""), " ", "-")
		if slug != anchor {
			continue
		}
		end := len(doc)
		for _, next := range heads[i+1:] {
			if next[3]-next[2] <= level {
				end = next[0]
				break
			}
		}
		return doc[h[1]:end], nil
	}
	return "", fmt.Errorf("%s has no heading with the anchor #%s", file, anchor)
}

// metricRows reads the name column of docs/OBSERVABILITY.md's "Metric
// names" table.
func metricRows(root string) (map[string]bool, error) {
	section, err := docSection(root, "docs/OBSERVABILITY.md#metric-names")
	if err != nil {
		return nil, err
	}
	rows := map[string]bool{}
	for _, r := range metricRow.FindAllStringSubmatch(section, -1) {
		rows[r[1]] = true
	}
	return rows, nil
}
