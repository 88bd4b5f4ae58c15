package antientropy_test

// The design contract as data. Each table pins what the code base has
// today; a change that moves a number or an entry edits the table, so the
// diff shows it, and CHANGES.md says why. Allowlists only shrink: an
// entry whose code is gone leaves the list too.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layering: no non-test file of a package in from imports a package at or
// below a path in banned; a rule with a reason in off is not enforced yet.
// The first rule keeps the layers beneath the protocol's executors free of them.
var layering = []struct {
	from, banned []string
	off          string
}{
	{from: []string{"internal/stats", "internal/theory", "internal/core", "internal/topology", "internal/overlay", "internal/wire"},
		banned: []string{"internal/sim", "internal/parsim", "internal/agent", "internal/transport", "internal/serve",
			"internal/scenario", "internal/experiments"}},
	{from: []string{"internal/sim"}, banned: []string{"internal/agent", "internal/transport", "internal/serve", "internal/scenario"}},
	{from: []string{"internal/agent"}, banned: []string{"internal/scenario", "internal/serve"}},
	{from: []string{"bench"}, banned: []string{"internal"},
		off: "bench/ drives internal packages until it names benchmarks instead (ROADMAP)"},
}

// budgets pins the exported field count of each configuration struct
// ("dir.Type") and the flags each package defines ("dir"; internal/cliutil
// holds the telemetry flags several commands share).
var budgets = map[string]int{
	"internal/agent.Config":               19,
	"internal/sim.Config":                 21,
	"internal/scenario.FleetOptions":      5,
	"internal/serve.RegistryConfig":       3,
	"internal/transport.UDPMuxConfig":     4,
	"internal/transport.MemNetworkConfig": 2,
	// flags
	"cmd/aggd": 6, "cmd/aggnode": 14, "cmd/aggscen": 15, "cmd/aggsim": 9,
	"cmd/envcheck": 3, "cmd/topoinfo": 7, "internal/cliutil": 4, "bench": 9,
}

// flagFuncs: flag.FlagSet's flag definers less "Var", which takes the name second.
var flagFuncs = []string{"", "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Float64",
	"Duration", "Func", "BoolFunc", "Text"}

// agentVars lists internal/agent's package-level variables ("file: name").
var agentVars = []string{
	"agent.go: book", "loops.go: sendBufs", "scheduler.go: sched", "scheduler.go: schedBase",
	"workspace.go: scribble", "workspace.go: workspaces",
}

// wallClock lists the references to the time functions that read or wait
// on the wall clock in the live stack's packages ("file: time.Func ×n").
var wallClock = []string{
	"internal/agent/agent.go: time.Now ×3", "internal/agent/loops.go: time.Now ×1",
	"internal/agent/recv.go: time.Now ×1", "internal/agent/scheduler.go: time.NewTimer ×1",
	"internal/agent/scheduler.go: time.Now ×2", "internal/scenario/udp_runner.go: time.NewTimer ×1",
	"internal/scenario/udp_runner.go: time.Now ×2", "internal/scenario/udp_runner.go: time.Until ×1",
	"internal/serve/http.go: time.Now ×2", "internal/serve/http.go: time.Since ×1",
	"internal/serve/limiter.go: time.Now ×1", "internal/serve/serve.go: time.Now ×3",
	"internal/transport/mem.go: time.AfterFunc ×1", "internal/transport/mem.go: time.Now ×1",
	"internal/transport/udpfilter.go: time.Now ×1",
}

// logPowExp lists the references to math.Log, math.Pow and math.Exp
// outside bench/ ("file: math.Func ×n"). A convergence factor is read by
// internal/stats's Rho and RhoWindow alone, so no variance ratio is
// raised to a power or averaged in the log domain anywhere else.
var logPowExp = []string{
	"internal/core/core.go: math.Pow ×1", "internal/experiments/figures.go: math.Pow ×1",
	"internal/plot/plot.go: math.Pow ×1", "internal/stats/convergence.go: math.Pow ×1",
	"internal/stats/moments.go: math.Exp ×1", "internal/stats/moments.go: math.Log ×1",
	"internal/stats/rng.go: math.Exp ×1", "internal/stats/rng.go: math.Log ×1",
	"internal/theory/theory.go: math.Exp ×2", "internal/theory/theory.go: math.Log ×3",
	"internal/theory/theory.go: math.Pow ×2",
}

var (
	wallClockDirs = []string{"internal/agent", "internal/transport", "internal/scenario", "internal/serve"}
	clockFuncs    = strings.Fields("Now Since Until Sleep After AfterFunc NewTimer NewTicker Tick")
)

// deprecatedUses lists the non-test references, from other packages, to
// an identifier whose doc says "Deprecated:" ("file: pkg.Name").
var deprecatedUses = []string{
	"antientropy.go: core.Combine", "bench/ladder.go: serve.TransportMem", "bench/serve.go: serve.TransportMem",
	"internal/experiments/figures.go: core.Combine", "internal/experiments/figures.go: core.CombinePlain",
	"internal/sim/helpers.go: core.Combine",
}

// simInterfaces lists internal/sim's exported interface types: the engine
// is one concrete type, and its hooks take *sim.Engine.
var simInterfaces = []string{"FailureModel", "OverlaySpec"}

// facadeNames pins the root package's exported package-level names:
// types, functions, constants and variables (ROADMAP item 4 prunes them).
const facadeNames = 138

// nodeMethods lists agent.Node's exported methods. A node's local value
// has one path, Config.Value, so no setter is on the list, and its state
// is read through one Snapshot: Estimate, Epoch and Outputs stay for the
// callers that need only that one value.
var nodeMethods = []string{
	"AddContacts", "Addr", "Epoch", "Estimate", "Metrics", "Outputs",
	"PeerCount", "Snapshot", "Start", "Stop",
}

func deprecated(docs ...*ast.CommentGroup) bool {
	return slices.ContainsFunc(docs, func(doc *ast.CommentGroup) bool {
		return doc != nil && strings.Contains("\n"+doc.Text(), "\nDeprecated:")
	})
}

// diffList reports every entry that only one of got and want holds.
func diffList(t *testing.T, what string, got, want []string) {
	t.Helper()
	got = slices.Compact(slices.Sorted(slices.Values(got)))
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("%s: %q is new; the list only shrinks", what, g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("%s: %q is gone; take it off the list", what, w)
		}
	}
}

func TestDesignContract(t *testing.T) {
	tree := map[string]*ast.File{} // every non-test Go file, by slash path from the module root
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tree[filepath.ToSlash(p)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{} // budgets' keys
	deps := map[string]bool{}  // deprecated package-level "dir.Name"
	facade := 0
	var vars, ifaces, methods []string
	for name, f := range tree {
		dir := path.Dir(name)
		export := func(id *ast.Ident) {
			if dir == "." && id.IsExported() {
				facade++
			}
		}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			for _, rule := range layering {
				for _, b := range rule.banned {
					if rule.off == "" && slices.Contains(rule.from, dir) && (p == "antientropy/"+b || strings.HasPrefix(p, "antientropy/"+b+"/")) {
						t.Errorf("layering: %s imports %s; %s may not depend on %s", name, p, dir, b)
					}
				}
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if fd, isFunc := decl.(*ast.FuncDecl); isFunc && fd.Recv == nil {
				export(fd.Name)
				if deprecated(fd.Doc) {
					deps[dir+"."+fd.Name.Name] = true
				}
			} else if isFunc && dir == "internal/agent" && fd.Name.IsExported() {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.Name == "Node" {
					methods = append(methods, fd.Name.Name)
				}
			}
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						export(id)
						deps[dir+"."+id.Name] = deprecated(gd.Doc, s.Doc)
						if dir == "internal/agent" && gd.Tok == token.VAR && id.Name != "_" {
							vars = append(vars, path.Base(name)+": "+id.Name)
						}
					}
				case *ast.TypeSpec:
					export(s.Name)
					deps[dir+"."+s.Name.Name] = deprecated(gd.Doc, s.Doc)
					if _, ok := s.Type.(*ast.InterfaceType); ok && dir == "internal/sim" && s.Name.IsExported() {
						ifaces = append(ifaces, s.Name.Name)
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if id.IsExported() {
									counts[dir+"."+s.Name.Name]++
								}
							}
						}
					}
				}
			}
		}
	}

	var uses []string
	clock := map[string]int{} // "file: time.Func" → references
	logs := map[string]int{}  // "file: math.Func" → references
	for name, f := range tree {
		dir := path.Dir(name)
		imported := map[string]string{} // local name → package dir, or "time"
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := path.Base(p)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imported[local] = strings.TrimPrefix(p, "antientropy/")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr: // a flag definition names its flag with a literal
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) >= 2 {
					fn, isVar := strings.CutSuffix(sel.Sel.Name, "Var")
					arg := n.Args[0]
					if isVar {
						arg = n.Args[1]
					}
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && slices.Contains(flagFuncs, fn) {
						counts[dir]++
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					pkg, fn := imported[x.Name], n.Sel.Name
					if pkg == "time" && slices.Contains(clockFuncs, fn) && slices.Contains(wallClockDirs, dir) {
						clock[name+": time."+fn]++
					}
					if pkg == "math" && (fn == "Log" || fn == "Pow" || fn == "Exp") && !strings.HasPrefix(name, "bench/") {
						logs[name+": math."+fn]++
					}
					if pkg != dir && deps[pkg+"."+fn] {
						uses = append(uses, name+": "+x.Name+"."+fn)
					}
				}
			}
			return true
		})
	}
	for key, want := range budgets {
		if got := counts[key]; got != want {
			t.Errorf("budget: %s counts %d, the table pins %d", key, got, want)
		}
	}
	for key := range counts {
		if _, ok := budgets[key]; !ok && !strings.Contains(key, ".") {
			t.Errorf("budget: %s defines flags but has no flag budget", key)
		}
	}
	var sites []string
	for site, n := range clock {
		sites = append(sites, fmt.Sprintf("%s ×%d", site, n))
	}
	diffList(t, "wall clock", sites, wallClock)
	var logSites []string
	for site, n := range logs {
		logSites = append(logSites, fmt.Sprintf("%s ×%d", site, n))
	}
	diffList(t, "math.Log/Pow/Exp", logSites, logPowExp)
	diffList(t, "internal/agent package-level vars", vars, agentVars)
	diffList(t, "callers of deprecated identifiers", uses, deprecatedUses)
	diffList(t, "internal/sim exported interfaces", ifaces, simInterfaces)
	diffList(t, "agent.Node exported methods", methods, nodeMethods)
	if facade != facadeNames {
		t.Errorf("the facade exports %d names, the table pins %d", facade, facadeNames)
	}
}
