package surface

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"emgo/internal/fault"
)

// TestFaultSitesAreArmed holds fault injection to the rule the exports
// are held to: every fault site is armed by some test, sits in
// internal/serve and is one of fault.Sites, and no test arms a site no
// code passes.
func TestFaultSitesAreArmed(t *testing.T) {
	m := loadModule(t)
	armed := m.armedSites(t)
	sites := m.faultSites(t)
	for site, pos := range sites {
		if !armed[site] {
			t.Errorf("fault site %q (%s) is armed by no test: arm it with fault.Enable where its recovery path is asserted, or delete the hook", site, pos)
		}
		if !slices.Contains(fault.Sites, site) {
			t.Errorf("fault site %q (%s) is missing from fault.Sites (internal/fault/fault.go), so -inject refuses it", site, pos)
		}
	}
	for _, site := range fault.Sites {
		if _, ok := sites[site]; !ok {
			t.Errorf("fault.Sites lists %q, which no code passes: -inject would arm nothing", site)
		}
	}
	for site := range armed {
		if _, ok := sites[site]; !ok {
			t.Errorf("a test arms fault site %q, which no code passes: the test drives nothing", site)
		}
	}
	t.Logf("%d fault sites checked", len(sites))
}

// armedSites is the set of sites the module's test files arm: the first
// argument of every fault.Enable call written with a literal, read
// syntactically.
func (m *module) armedSites(t *testing.T) map[string]bool {
	armed := map[string]bool{}
	for path, dir := range m.dirs {
		if strings.HasPrefix(path, "emgo/bench") {
			continue
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Enable" {
					return true
				}
				x, isIdent := sel.X.(*ast.Ident)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if isIdent && isLit && x.Name == "fault" {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						armed[s] = true
					}
				}
				return true
			})
		}
	}
	return armed
}

// faultSites lists the site literal of every fault.Inject call in
// non-test code, with where it is. A call outside internal/serve is an
// error: the pipeline's own packages fail for real on a cancelled
// context or a panicking part, and their tests drive those instead.
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
				if fn := p.callee(call); fn == nil || fn.Pkg().Name() != "fault" || fn.Name() != "Inject" {
					return true
				}
				pos := m.fset.Position(call.Pos())
				file, _ := filepath.Rel(m.root, pos.Filename)
				if p.path != "emgo/internal/serve" {
					t.Errorf("%s:%d: a fault site outside internal/serve: drive the failure with a cancelled context or a test double of the interface instead", file, pos.Line)
				}
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
