// Package surface holds the test that keeps the operational packages'
// exported surface honest: what is settable or callable is set or called
// by non-test code somewhere in the repository.
package surface

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// library is the PyMatcher-equivalent half of the module (DESIGN §1):
// its exported API is the reproduction's product, offered to callers
// this repository does not contain, so it is not held to the rule. The
// files listed under a library package are the operational parts that
// live inside it and are checked like everything else.
var library = map[string][]string{
	"emgo/internal/table":    nil,
	"emgo/internal/profile":  nil,
	"emgo/internal/tokenize": nil,
	"emgo/internal/simfunc":  nil,
	"emgo/internal/block":    nil,
	"emgo/internal/feature":  nil,
	"emgo/internal/rules":    nil,
	"emgo/internal/estimate": nil,
	"emgo/internal/cluster":  nil,
	"emgo/internal/core":     nil,
	"emgo/internal/label":    {"tool.go"},
	"emgo/internal/ml":       {"persist.go"},
}

// harness is the one package whose test files count as callers: the
// smoke scenarios start and drain the real emserve through
// load.StartServer and load.ServerProc (internal/load/proc.go) and send
// every request through load.Client, which exist for them.
const harness = "emgo/internal/smoke"

const dispositions = `
Settable or callable means set or called by a binary, bench/embench, an
example, the smoke harness or another non-test file. For each one, pick:
  1. wire it in  - a private copy elsewhere does its job: call the export, delete the copy;
  2. unexport it - one value is in use: make it a constant or an unexported seam next to its reader;
  3. delete it   - with the tests that only checked it.
An identifier that has to stay as it is (a test seam, a reference oracle,
a method called through an interface the scan cannot see) goes in the
allowlist in allowlist_test.go with its reason.`

// TestOperationalExportsAreUsed type-checks every package of the module
// and of the nested bench module from source — non-test files only, plus
// the harness — and fails on an operational export nothing refers to
// outside its own declaration, and on an exported struct field code
// reads but only a test (or nothing) ever sets.
func TestOperationalExportsAreUsed(t *testing.T) {
	m := loadModule(t)
	used, set := m.uses()
	ifaces := m.interfaces()

	seen := map[string]bool{}
	var unused, unset []string
	count := 0
	for _, p := range m.sorted() {
		for _, c := range p.exports(m, ifaces) {
			count++
			seen[c.name] = true
			ok := used[c.obj] && (!c.settable || set[c.obj])
			reason, allowed := allowlist[c.name]
			pos := m.fset.Position(c.obj.Pos())
			file, _ := filepath.Rel(m.root, pos.Filename)
			site := fmt.Sprintf("%s\n\tdeclared at %s:%d", c.name, file, pos.Line)
			switch {
			case ok && allowed:
				t.Errorf("allowlist entry %s (%q) is stale: non-test code uses it now; drop the entry", c.name, reason)
			case allowed:
			case !used[c.obj]:
				unused = append(unused, site)
			case !ok:
				unset = append(unset, site)
			}
		}
	}
	for name, reason := range allowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s (%q) names nothing the scan checks; drop the entry", name, reason)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s carries no reason", name)
		}
	}
	t.Logf("%d operational exports checked, %d allowlisted", count, len(allowlist))
	if len(unused) > 0 {
		t.Errorf("%d exported identifier(s) of the operational packages have no use outside tests:\n\n%s\n%s",
			len(unused), strings.Join(unused, "\n"), dispositions)
	}
	if len(unset) > 0 {
		t.Errorf("%d exported field(s) of the operational packages are read, but nothing outside a test sets them, so one value is in use:\n\n%s\n%s",
			len(unset), strings.Join(unset, "\n"), dispositions)
	}
}

type module struct {
	root string
	fset *token.FileSet
	ctx  build.Context
	dirs map[string]string // import path → directory
	pkgs map[string]*pkg
	std  types.Importer
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule finds and checks every package directory under the
// repository root. bench/ is its own module (replaced onto this tree),
// which `go list ./...` does not see; walking the tree does, and its
// imports of emgo/internal/... resolve like any other.
func loadModule(t *testing.T) *module {
	if loaded != nil {
		return loaded
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	build.Default.CgoEnabled = false // the source importer reads build.Default; pure-Go std needs no C toolchain
	m := &module{root: root, fset: token.NewFileSet(), ctx: build.Default, dirs: map[string]string{}, pkgs: map[string]*pkg{}}
	m.ctx.BuildTags = []string{"smoke"}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) > 0 {
			rel, _ := filepath.Rel(root, path)
			m.dirs[filepath.ToSlash(filepath.Join("emgo", rel))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	loaded = m
	return m
}

// loaded is the module once a test has checked it: the two tests of this
// package read the same ASTs.
var loaded *module

// Import makes the module its own importer: a package of this tree is
// parsed and checked here, so its types.Info is kept; anything else is
// the standard library's.
func (m *module) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p.types, nil
	}
	bp, err := m.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if path == harness {
		names = append(names, bp.TestGoFiles...)
	}
	p := &pkg{path: path, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	m.pkgs[path] = p
	p.types, err = (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
	return p.types, err
}

func (m *module) sorted() []*pkg {
	var out []*pkg
	for _, p := range m.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// origin maps a method or field of an instantiated generic type back to
// the one declared in source.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// uses returns the objects some identifier refers to from outside the
// object's own declaration (a function that only calls itself, or a type
// only its own methods mention, is still unused), and the struct fields
// some statement gives a value: a composite-literal element, the left
// side of an assignment or ++/--, or an address taken (flag.StringVar
// and a decoder both write through one). An assignment inside an if whose
// condition reads the same field is the field's defaulting, not a set.
func (m *module) uses() (used, set map[types.Object]bool) {
	used, set = map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range m.pkgs {
		type span struct{ pos, end token.Pos }
		decl := map[types.Object]span{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[p.info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[p.info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[p.info.Defs[n]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if s, own := decl[obj]; own && s.pos <= id.Pos() && id.Pos() < s.end {
				continue
			}
			used[obj] = true
		}

		// A field's own defaulting — `if c.F <= 0 { c.F = DefaultF }` — is
		// not a set: it is how the one value in use gets there when nothing
		// else sets the field.
		defaulting := map[ast.Expr]bool{}
		field := func(e ast.Expr) *types.Var {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if f, ok := p.info.Uses[sel.Sel].(*types.Var); ok && f.IsField() {
					return f.Origin()
				}
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				read := map[*types.Var]bool{}
				ast.Inspect(ifs.Cond, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok && field(e) != nil {
						read[field(e)] = true
					}
					return true
				})
				ast.Inspect(ifs.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							if f := field(lhs); f != nil && read[f] {
								defaulting[lhs] = true
							}
						}
					}
					return true
				})
				return true
			})
		}

		written := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr: // cfg.M[k] = v fills the field's map
					e = x.X
					continue
				case *ast.SelectorExpr:
					if f, ok := p.info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
						set[f.Origin()] = true
					}
				}
				return
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if !defaulting[lhs] {
							written(lhs)
						}
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				case *ast.CompositeLit:
					st, ok := types.Unalias(p.info.Types[n].Type).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); !ok {
							set[st.Field(i).Origin()] = true
						} else if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set[f.Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	return used, set
}

// interfaces collects every named interface the module declares or can
// name through a direct import, plus error. A method one of them lists,
// on a type that implements it, is called through the interface — where
// types.Info records the interface's method, not the concrete one.
func (m *module) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	done := map[*types.Package]bool{}
	add := func(tp *types.Package) {
		if done[tp] {
			return
		}
		done[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, p := range m.pkgs {
		add(p.types)
		for _, imp := range p.types.Imports() {
			add(imp)
		}
	}
	return out
}

type candidate struct {
	name     string // pkg.Name, pkg.Type.Method or pkg.Type.Field, pkg being the path under emgo/internal/
	obj      types.Object
	settable bool // a field only code can fill: used means set, too
}

// exports lists the package's exported objects the rule applies to.
func (p *pkg) exports(m *module, ifaces []*types.Interface) []candidate {
	if p.path == harness || !strings.HasPrefix(p.path, "emgo/internal/") && !strings.HasPrefix(p.path, "emgo/cmd/") {
		return nil // the harness, the examples, bench and the root package are callers only
	}
	operational, isLibrary := library[p.path]
	checked := func(obj types.Object) bool {
		if !obj.Exported() {
			return false
		}
		if !isLibrary {
			return true
		}
		file := filepath.Base(m.fset.Position(obj.Pos()).Filename)
		for _, f := range operational {
			if f == file {
				return true
			}
		}
		return false
	}
	short := strings.TrimPrefix(strings.TrimPrefix(p.path, "emgo/internal/"), "emgo/")
	var out []candidate
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if checked(obj) {
			out = append(out, candidate{name: short + "." + name, obj: obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if fn := named.Method(i); checked(fn) && !viaInterface(named, fn, ifaces) {
				out = append(out, candidate{name: short + "." + name + "." + fn.Name(), obj: fn})
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok && tn.Exported() {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); checked(f) && !f.Embedded() {
					// A field with a json key is filled by a decoder
					// (a spec, a report, a status document read back).
					_, decoded := reflect.StructTag(st.Tag(i)).Lookup("json")
					out = append(out, candidate{name: short + "." + name + "." + f.Name(), obj: f, settable: !decoded})
				}
			}
		}
	}
	return out
}

// viaInterface reports whether fn is called through an interface: a
// known interface lists it and fn's receiver type implements that
// interface, or it is part of the errors package's unnamed protocol.
func viaInterface(named *types.Named, fn *types.Func, ifaces []*types.Interface) bool {
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
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

var (
	mdHeading  = regexp.MustCompile(`(?m)^(#+) +(.*)$`)
	mdSlugDrop = regexp.MustCompile(`[^a-z0-9 _-]`)
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
