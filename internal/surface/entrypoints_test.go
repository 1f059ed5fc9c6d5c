package surface

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
script under scripts/, bench/run.sh, or non-test code that execs the binary;
a sentence in the docs or in a usage text is not one. For each entry point
nothing runs, pick:
  1. delete it   - the mode, subcommand, key or switch, with the code only it reached;
  2. constant it - one value is in use: the threshold becomes a constant next to its reader;
  3. wire it in  - a runner that exists should be using it.
A flag that says where or how large (an address, a path, an id, a size, a
timeout) is a deployment setting: name its kind in deploymentSettings. An
entry point a person runs by hand and that has to stay goes in
unrunEntryPoints (allowlist_test.go) with its reason.`

// checkedBinaries are the commands whose entry points the rule covers:
// the load driver and the gate, neither on a request's or a run's path.
var checkedBinaries = []string{"emload", "emmonitor"}

// TestEntryPointsHaveRunners holds what can be invoked to the rule the
// exports, config fields and metric names are held to: every value of an
// enumerated flag (emload -mode), every emmonitor subcommand, every policy
// flag of the two, every snapshot key `emmonitor perf` decodes and every
// environment switch of a script under scripts/ is exercised by a runner.
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
	if len(unrunEntryPoints) > 6 {
		t.Errorf("unrunEntryPoints has %d entries, the cap is 6: an entry point only a person runs is the exception", len(unrunEntryPoints))
	}
	t.Logf("%d entry points checked (%d deployment settings, %d allowlisted) against %d runner units",
		len(points), len(points)-policy, len(unrunEntryPoints), len(units))
	if len(orphans) > 0 {
		t.Errorf("%d entry point(s) no runner invokes:\n\n%s\n%s", len(orphans), strings.Join(orphans, "\n"), entryPointDispositions)
	}
}

// entryPoint is one thing that can be invoked from outside the program.
// A flag, mode, subcommand or script switch is run when one runner unit
// hands the binary or script all of its words together; a snapshot key
// when the snapshots the gate is handed carry it.
type entryPoint struct {
	name string // "emload -mode soak", "emmonitor check -strict", "emmonitor perf", "perf snapshot key benchmarks"
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

// runnerUnit is one place that invokes something: a function of the smoke
// harness (its string literals are the arguments it can pass) or one
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
	for _, f := range m.pkgs[harness].files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			u := runnerUnit{where: "internal/smoke " + fd.Name.Name, words: map[string]bool{}}
			ast.Inspect(fd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						u.words[s] = true
					}
				}
				return true
			})
			units = append(units, u)
		}
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
					name, isConst := constant(n.Args[0])
					if !isConst {
						break
					}
					if fn.Name() == "NewFlagSet" {
						set = name
						break
					}
					// A flag definition returns the pointer the value lands in.
					if res := fn.Type().(*types.Signature).Results(); res.Len() == 1 {
						if _, ptr := res.At(0).Type().(*types.Pointer); ptr && fn.Type().(*types.Signature).Recv() != nil {
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
					if prefix == nil {
						break
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
