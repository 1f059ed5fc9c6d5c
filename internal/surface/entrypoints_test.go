package surface

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const entryPointDispositions = `
Runnable means run. A runner is a TestSmoke scenario, a Makefile target, a
script under scripts/, bench/run.sh, or non-test code that execs the binary
or calls the server (internal/load, emmonitor, embench); a sentence in the
docs or in a usage text is not one. For each entry point nothing runs, pick:
  1. delete it   - the mode, subcommand, key, switch or route, with the code only it reached;
  2. constant it - one value is in use: the threshold becomes a constant next to its reader;
  3. wire it in  - a runner that exists should be using it.
A flag that says where or how large (an address, a path, an id, a size, a
timeout) is a deployment setting: name its kind in deploymentSettings. An
entry point a person runs by hand and that has to stay goes in
unrunEntryPoints (allowlist_test.go) with its reason.`

// checkedBinaries are the commands whose entry points the rule covers: the
// load driver, the gate, the matching service and the production matcher.
// A command's flags are read off its own source, so the ones
// internal/cliutil registers for it (-spec, -left, -right, -transforms,
// -date-cols and the run record's -report and -debug-addr) stay out of
// scope.
var checkedBinaries = []string{"emload", "emmonitor", "emserve", "emmatch"}

// runnerPackages are the Go packages whose functions are runner units: the
// smoke harness, and the non-test code that runs the server — emload's
// driver and supervisor (internal/load) and embench.
var runnerPackages = []string{harness, "emgo/internal/load", "emgo/bench/embench"}

// launchers are the functions that start a binary whose name is none of
// their literals: load.StartServer execs the emserve its ServerConfig
// names. A function that calls a launcher, or a function of its own
// package that does, hands that binary the words it holds.
var launchers = map[string]string{"emgo/internal/load.StartServer": "emserve"}

// TestEntryPointsHaveRunners holds what can be invoked to the rule the
// exports and config fields are held to: every value of an
// enumerated flag (emload -mode), every emmonitor subcommand, every policy
// flag of the four commands, every route the server mounts, every snapshot
// key `emmonitor perf` decodes and every environment switch of a script
// under scripts/ is exercised by a runner; and no handler is mounted at two
// patterns.
func TestEntryPointsHaveRunners(t *testing.T) {
	m := loadModule(t)
	units := m.runnerUnits(t)
	run := func(words ...string) bool {
		for _, u := range units {
			if u.has(words) {
				return true
			}
		}
		return false
	}

	var points []entryPoint
	for _, bin := range checkedBinaries {
		points = append(points, m.pkgs["emgo/cmd/"+bin].cliEntryPoints(m, run)...)
	}
	points = append(points, m.snapshotKeys(t)...)
	points = append(points, m.scriptSwitches(t, run)...)
	routes, twice := m.routes(t)
	points = append(points, routes...)
	if len(twice) > 0 {
		t.Errorf("%d handler(s) mounted at more than one pattern:\n\n%s\n\nOne pattern per handler: keep the one a runner uses and delete the rest.",
			len(twice), strings.Join(twice, "\n"))
	}

	seen := map[string]bool{}
	var orphans []string
	policy := 0
	for _, ep := range points {
		seen[ep.name] = true
		kind, deployment := deploymentSettings[ep.name]
		reason, allowed := unrunEntryPoints[ep.name]
		switch {
		case deployment && allowed:
			t.Errorf("%s is both a deployment setting and allowlisted; pick one", ep.name)
		case deployment:
			if !deploymentKinds[kind] {
				t.Errorf("deploymentSettings entry %s has kind %q, which is not one of address, path, id, size, timeout", ep.name, kind)
			}
			continue
		}
		policy++
		switch {
		case ep.ran && allowed:
			t.Errorf("unrunEntryPoints entry %s (%q) is stale: a runner invokes it now; drop the entry", ep.name, reason)
		case !ep.ran && !allowed:
			orphans = append(orphans, ep.name+"\n\t"+ep.site)
		}
	}
	for name, reason := range unrunEntryPoints {
		if !seen[name] {
			t.Errorf("unrunEntryPoints entry %s names no entry point the scan finds; drop the entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("unrunEntryPoints entry %s carries no reason", name)
		}
	}
	for name := range deploymentSettings {
		if !seen[name] {
			t.Errorf("deploymentSettings entry %s names no flag or switch the scan finds; drop the entry", name)
		}
	}
	if len(unrunEntryPoints) > 5 {
		t.Errorf("unrunEntryPoints has %d entries, the cap is 5: an entry point only a person runs is the exception", len(unrunEntryPoints))
	}
	t.Logf("%d entry points checked (%d deployment settings, %d allowlisted) against %d runner units",
		len(points), len(points)-policy, len(unrunEntryPoints), len(units))
	if len(orphans) > 0 {
		t.Errorf("%d entry point(s) no runner invokes:\n\n%s\n%s", len(orphans), strings.Join(orphans, "\n"), entryPointDispositions)
	}
}

// entryPoint is one thing that can be invoked from outside the program.
// A flag, mode, subcommand or script switch is run when one runner unit
// hands the binary or script all of its words together; a route when a
// runner's request resolves to it; a snapshot key when the snapshots the
// gate is handed carry it.
type entryPoint struct {
	name string // "emload -mode soak", "emmonitor check -strict", "emmonitor perf", "route GET /v1/status", "perf snapshot key benchmarks"
	site string // where it is declared
	ran  bool
}

// at renders a position as file:line under the repository root.
func (m *module) at(pos token.Pos) string {
	p := m.fset.Position(pos)
	file, _ := filepath.Rel(m.root, p.Filename)
	return fmt.Sprintf("%s:%d", file, p.Line)
}

var deploymentKinds = map[string]bool{"address": true, "path": true, "id": true, "size": true, "timeout": true}

// runnerUnit is one place that invokes something: a function of a runner
// package (its string literals, those of the package-level values it
// names, and the binaries it starts are the arguments it can pass) or one
// logical command line of the Makefile, a script or bench/run.sh.
type runnerUnit struct {
	where string
	words map[string]bool
}

func (u runnerUnit) has(words []string) bool {
	for _, w := range words {
		if !u.words[w] {
			return false
		}
	}
	return true
}

var shellWord = regexp.MustCompile(`-?[A-Za-z][A-Za-z0-9_.-]*`)

// runnerUnits collects every runner unit of the repository. Comment lines
// of a Makefile or script are sentences, not invocations, and are skipped.
func (m *module) runnerUnits(t *testing.T) []runnerUnit {
	var units []runnerUnit
	for _, path := range runnerPackages {
		units = append(units, m.pkgs[path].funcUnits()...)
	}
	files := []string{"Makefile", filepath.Join("bench", "run.sh")}
	scripts, _ := filepath.Glob(filepath.Join(m.root, "scripts", "*"))
	for _, s := range scripts {
		rel, _ := filepath.Rel(m.root, s)
		files = append(files, rel)
	}
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(m.root, file))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(data), "\\\n", " ")
		for i, line := range strings.Split(text, "\n") {
			if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			u := runnerUnit{where: fmt.Sprintf("%s:%d", file, i+1), words: map[string]bool{}}
			for _, w := range shellWord.FindAllString(line, -1) {
				u.words[w] = true
			}
			units = append(units, u)
		}
	}
	return units
}

// stringLits is every string literal under n, unquoted.
func stringLits(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// funcUnits makes each function of the package a runner unit. Its words
// are its own string literals, those of the package-level values it names
// (the harness's jobArgs), and the checked binaries it starts: one it names
// by a literal, a launcher's, or one a function of the package it calls or
// hands on starts.
func (p *pkg) funcUnits() []runnerUnit {
	values := map[types.Object][]string{}
	funcs := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				funcs[p.info.Defs[d.Name]] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							values[p.info.Defs[n]] = stringLits(vs)
						}
					}
				}
			}
		}
	}
	binary := map[string]bool{}
	for _, b := range checkedBinaries {
		binary[b] = true
	}
	words := map[*ast.FuncDecl]map[string]bool{}
	starts := map[*ast.FuncDecl]map[string]bool{}
	calls := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for obj, fd := range funcs {
		w, s := map[string]bool{}, map[string]bool{}
		if b, ok := launchers[p.path+"."+obj.Name()]; ok && fd.Recv == nil {
			s[b] = true
		}
		for _, lit := range stringLits(fd) {
			w[lit] = true
			if binary[lit] {
				s[lit] = true
			}
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(p.info.Uses[id])
			for _, lit := range values[obj] {
				w[lit] = true
			}
			if g, ok := funcs[obj]; ok {
				calls[fd] = append(calls[fd], g)
			} else if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				if b, ok := launchers[fn.Pkg().Path()+"."+fn.Name()]; ok {
					s[b] = true
				}
			}
			return true
		})
		words[fd], starts[fd] = w, s
	}
	for changed := true; changed; {
		changed = false
		for fd, callees := range calls {
			for _, g := range callees {
				for b := range starts[g] {
					if !starts[fd][b] {
						starts[fd][b], changed = true, true
					}
				}
			}
		}
	}
	var units []runnerUnit
	for _, fd := range funcs {
		u := runnerUnit{where: p.path + " " + fd.Name.Name, words: words[fd]}
		for b := range starts[fd] {
			u.words[b] = true
		}
		units = append(units, u)
	}
	return units
}

// cliEntryPoints reads a command's entry points off its source: every
// flag of every flag.FlagSet it declares ("<set name> -<flag>"), every
// case of a switch over a flag's value ("<set name> -<flag> <value>"),
// and every case of a switch over args[0] ("<binary> <subcommand>").
func (p *pkg) cliEntryPoints(m *module, run func(words ...string) bool) []entryPoint {
	bin := filepath.Base(p.path)
	constant := func(e ast.Expr) (string, bool) {
		s, whole, ok := p.literalHead(e)
		return s, ok && whole
	}
	point := func(n ast.Node, words ...string) entryPoint {
		return entryPoint{name: strings.Join(words, " "), site: "declared at " + m.at(n.Pos()), ran: run(words...)}
	}
	flagSetMethod := func(call *ast.CallExpr) *types.Func {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		fn, ok := p.info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return nil
		}
		return fn
	}

	var out []entryPoint
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			set := ""                             // the function's FlagSet name: "emload", "emmonitor check"
			flagVars := map[types.Object]string{} // mode := fs.String("mode", …) → "mode"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fn := flagSetMethod(n)
					if fn == nil || len(n.Args) == 0 {
						break
					}
					sig := fn.Type().(*types.Signature)
					if strings.HasSuffix(fn.Name(), "Var") && sig.Recv() != nil && len(n.Args) > 1 {
						// fs.Var(&v, "name", …), fs.StringVar(&v, "name", …)
						if name, isConst := constant(n.Args[1]); isConst {
							out = append(out, point(n, append(strings.Fields(set), "-"+name)...))
						}
						break
					}
					name, isConst := constant(n.Args[0])
					if !isConst {
						break
					}
					if fn.Name() == "NewFlagSet" {
						set = name
						break
					}
					// A flag definition returns the pointer the value lands in.
					if res := sig.Results(); res.Len() == 1 {
						if _, ptr := res.At(0).Type().(*types.Pointer); ptr && sig.Recv() != nil {
							out = append(out, point(n, append(strings.Fields(set), "-"+name)...))
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
						break
					}
					call, isCall := n.Rhs[0].(*ast.CallExpr)
					id, isIdent := n.Lhs[0].(*ast.Ident)
					if !isCall || !isIdent || flagSetMethod(call) == nil || len(call.Args) == 0 {
						break
					}
					if name, isConst := constant(call.Args[0]); isConst {
						flagVars[p.info.Defs[id]] = name
					}
				case *ast.SwitchStmt:
					var prefix []string
					switch tag := n.Tag.(type) {
					case *ast.StarExpr: // switch *mode
						if id, ok := tag.X.(*ast.Ident); ok {
							if name, isFlag := flagVars[p.info.Uses[id]]; isFlag {
								prefix = append(strings.Fields(set), "-"+name)
							}
						}
					case *ast.IndexExpr: // switch args[0]
						if id, ok := tag.X.(*ast.Ident); ok && id.Name == "args" {
							prefix = []string{bin}
						}
					}
					if _, deployment := deploymentSettings[strings.Join(prefix, " ")]; prefix == nil || deployment {
						break // a deployment setting's special values (-access-log "" and "-") are not modes
					}
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							v, isConst := constant(e)
							if !isConst || strings.HasPrefix(v, "-") || v == "help" {
								continue
							}
							out = append(out, point(e, append(append([]string{}, prefix...), v)...))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

var benchSnapshotName = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// snapshotKeys lists the top-level keys `emmonitor perf` decodes (the
// json tags of its benchSnapshot struct). A key is run when both
// snapshots `make perf-gate` hands the gate — the two newest committed
// BENCH_pr*.json — carry it.
func (m *module) snapshotKeys(t *testing.T) []entryPoint {
	p := m.pkgs["emgo/cmd/emmonitor"]
	tn, ok := p.types.Scope().Lookup("benchSnapshot").(*types.TypeName)
	if !ok {
		t.Fatal("cmd/emmonitor declares no benchSnapshot type: the scan cannot tell which snapshot keys the gate reads")
	}
	st := tn.Type().Underlying().(*types.Struct)

	type snap struct {
		n    int
		name string
	}
	var snaps []snap
	entries, _ := os.ReadDir(m.root)
	for _, e := range entries {
		if sub := benchSnapshotName.FindStringSubmatch(e.Name()); sub != nil {
			n, _ := strconv.Atoi(sub[1])
			snaps = append(snaps, snap{n, e.Name()})
		}
	}
	if len(snaps) < 2 {
		t.Fatal("fewer than two BENCH_pr*.json snapshots at the repository root")
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].n < snaps[j].n })
	var newest []map[string]json.RawMessage
	for _, s := range snaps[len(snaps)-2:] {
		data, err := os.ReadFile(filepath.Join(m.root, s.name))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		newest = append(newest, doc)
	}

	var out []entryPoint
	for i := 0; i < st.NumFields(); i++ {
		key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		if key == "" || key == "-" {
			continue
		}
		_, inOld := newest[0][key]
		_, inNew := newest[1][key]
		out = append(out, entryPoint{
			name: "perf snapshot key " + key,
			site: fmt.Sprintf("decoded at %s; `make perf-gate` compares %s with %s", m.at(st.Field(i).Pos()), snaps[len(snaps)-2].name, snaps[len(snaps)-1].name),
			ran:  inOld && inNew,
		})
	}
	return out
}

var scriptSwitch = regexp.MustCompile(`\$\{([A-Z][A-Z0-9_]*):-`)

// scriptSwitches lists the environment variables the scripts under
// scripts/ read with a default (${NAME:-…}): a script's flags. One is run
// when a command line of a runner names both the script and the variable.
func (m *module) scriptSwitches(t *testing.T, run func(words ...string) bool) []entryPoint {
	scripts, _ := filepath.Glob(filepath.Join(m.root, "scripts", "*"))
	var out []entryPoint
	for _, s := range scripts {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(m.root, s)
		seen := map[string]bool{}
		for _, sub := range scriptSwitch.FindAllStringSubmatch(string(data), -1) {
			if name := sub[1]; !seen[name] {
				seen[name] = true
				out = append(out, entryPoint{name: rel + " " + name, site: "read by " + rel, ran: run(filepath.Base(s), name)})
			}
		}
	}
	return out
}

var muxPattern = regexp.MustCompile(`^([A-Z]+ )?/`)

// routes lists the patterns serve.Server.Handler mounts — a call in its
// body whose first argument is a constant pattern, the handler its last
// argument. One is run when a runner's request resolves to it on an
// http.ServeMux built from those patterns, so Go's own precedence decides
// (an exact path against the /debug/ prefix, a redirect to a pattern's
// trailing slash). twice names each handler mounted after its first pattern.
func (m *module) routes(t *testing.T) (points []entryPoint, twice []string) {
	p := m.pkgs["emgo/internal/serve"]
	var handler *ast.FuncDecl
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Handler" &&
				types.ExprString(fd.Recv.List[0].Type) == "*Server" {
				handler = fd
			}
		}
	}
	if handler == nil {
		t.Fatal("internal/serve declares no (*Server).Handler: the scan cannot tell which routes the server mounts")
	}
	type mount struct {
		pattern, handler string
		pos              token.Pos
	}
	var mounts []mount
	ast.Inspect(handler.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if pattern, whole, ok := p.literalHead(call.Args[0]); ok && whole && muxPattern.MatchString(pattern) {
			mounts = append(mounts, mount{pattern, types.ExprString(call.Args[len(call.Args)-1]), call.Pos()})
		}
		return true
	})

	mux := http.NewServeMux()
	registered := map[string]bool{}
	first := map[string]mount{}
	for _, mt := range mounts {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("pattern %q (%s) does not register: %v", mt.pattern, m.at(mt.pos), r)
				}
			}()
			mux.Handle(mt.pattern, http.NotFoundHandler())
			registered[mt.pattern] = true
		}()
		if prev, ok := first[mt.handler]; ok {
			twice = append(twice, fmt.Sprintf("route %s\n\tmounted at %s: %s is mounted at %s too (%s)",
				mt.pattern, m.at(mt.pos), mt.handler, prev.pattern, m.at(prev.pos)))
		} else {
			first[mt.handler] = mt
		}
	}
	resolve := func(method, path string) string {
		for hop := 0; hop < 2; hop++ {
			r, err := http.NewRequest(method, "http://em"+path, nil)
			if err != nil {
				return ""
			}
			_, pattern := mux.Handler(r)
			if pattern == "" || registered[pattern] {
				return pattern
			}
			path = pattern // a redirect: the path that matches once it is followed
		}
		return ""
	}
	ran := map[string]bool{}
	for _, path := range runnerPackages {
		for _, ev := range m.pkgs[path].requests() {
			ran[resolve(ev.method, ev.path)] = true
		}
	}
	for _, mt := range mounts {
		points = append(points, entryPoint{name: "route " + mt.pattern, site: "mounted at " + m.at(mt.pos), ran: ran[mt.pattern]})
	}
	return points, twice
}

// request is a runner's evidence that it calls a route: a method and a
// path.
type request struct{ method, path string }

// requests collects the package's requests. The path is a string-constant
// one — a literal, or a concatenation starting with a constant "/…" part,
// its non-constant parts a placeholder and its query string cut off. Its
// method is an http.Method* constant among the operands of the same call,
// return statement or composite literal; with none it is a GET. A path and
// a method that only share a function are not tied.
func (p *pkg) requests() []request {
	var out []request
	for _, f := range p.files {
		methodOf := map[ast.Expr]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			var operands []ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				operands = n.Args
			case *ast.ReturnStmt:
				operands = n.Results
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					operands = append(operands, e)
				}
			}
			for _, e := range operands {
				if method := p.httpMethod(e); method != "" {
					for _, o := range operands {
						methodOf[o] = method
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			path, ok := p.constPath(e)
			if !ok {
				return true
			}
			method := methodOf[e]
			if method == "" {
				method = http.MethodGet
			}
			out = append(out, request{method, path})
			return false // its parts are this path, not paths of their own
		})
	}
	return out
}

// httpMethod is the value of an http.Method* constant e names, or "".
func (p *pkg) httpMethod(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	c, ok := p.info.Uses[sel.Sel].(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != "net/http" || !strings.HasPrefix(c.Name(), "Method") {
		return ""
	}
	return constant.StringVal(c.Val())
}

// constPath reads a request path off a string expression (see requests).
func (p *pkg) constPath(e ast.Expr) (string, bool) {
	var parts []ast.Expr
	var flatten func(e ast.Expr)
	flatten = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			flatten(x.X)
			return
		case *ast.BinaryExpr:
			if x.Op == token.ADD && p.info.Types[x].Value == nil {
				flatten(x.X)
				flatten(x.Y)
				return
			}
		}
		parts = append(parts, e)
	}
	flatten(e)
	var b strings.Builder
	for _, part := range parts {
		v := p.info.Types[part].Value
		switch {
		case v != nil && v.Kind() == constant.String && (b.Len() > 0 || strings.HasPrefix(constant.StringVal(v), "/")):
			b.WriteString(constant.StringVal(v))
		case b.Len() > 0:
			b.WriteString("_")
		}
	}
	if b.Len() == 0 {
		return "", false
	}
	path, _, _ := strings.Cut(b.String(), "?")
	return path, true
}
