package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testHooks are the exported identifiers under internal/ that no
// program uses but a test needs, as a reference or as a checker. Each
// value names the test that needs the hook. An entry that gains a
// program caller, or whose identifier is deleted, fails the guard too,
// so the list stays honest.
var testHooks = map[string]string{
	"analysis.Loader.LoadDir":         "runAnalyzerTest and TestDirectiveValidation load testdata packages",
	"batch.DefaultLevels":             "TestConstsMatchStageWalkingFormulas, TestReusedHypotheticalMatchesFresh",
	"batch.Hypothetical.Jobs":         "TestReusedHypotheticalMatchesFresh, TestFinishedJobsExcluded",
	"batch.Hypothetical.PredictExact": "the exact reference of TestQuickGridConvergesToExact and BenchmarkAblationHypotheticalGridVsExact",
	"batch.Spec.UtilityAtSpeed":       "the allocator oracle of TestAllocatorAgainstGridSearch",
	"batch.UniformLevels":             "TestQuickGridConvergesToExact and BenchmarkAblationGridResolution",
	"cluster.Inventory.Active":        "TestInventoryLifecycle",
	"cluster.Inventory.Len":           "TestInventoryLifecycle, TestInventoryExportImportRoundTrip",
	"control.Runner.Actions":          "TestRunnerGolden",
	"daemon.Daemon.Now":               "TestKillRestartPlacementRoundTrip",
	"experiments.ReplaySweepTable":    "TestReplaySweep and the BenchmarkReplaySweep gate",
	"experiments.RunReplaySweep":      "TestReplaySweep and the BenchmarkReplaySweep gate",
	"flow.Network.Flows":              "TestFlowsConservation, TestReusedNetworkMatchesFresh",
	"forecast.Estimator.Export":       "TestGoldenTemplateEvolution",
	"forecast.Set.Names":              "TestSetLifecycle",
	"metrics.Counter.Total":           "TestRunnerGolden, TestApplyPause",
	"metrics.Ring.Cap":                "TestRingMinimumCapacity",
	"metrics.Series.At":               "TestStaticPartitionWebSeries",
	"metrics.Series.Len":              "TestRunnerGolden",
	"metrics.Series.Mean":             "TestSeriesMeanEmpty",
	"obs.Exposition.Value":            "TestDaemonPromExposition, TestMetricsPromGzip",
	"router.Router.StatsFor":          "TestDaemonRoutesTraffic, TestStatsSurviveRepublish",
	"rpf.Vector.Min":                  "TestOptimizerAgainstExhaustivePlacement, TestAllocatorAgainstGridSearch",
	"shard.Coordinator.Assignments":   "TestNoAppLostOrDuplicatedAcrossCycles",
	"sim.Simulator.Pending":           "TestHorizonStopsRun, TestStop",
	"sim.Simulator.RunAll":            "TestEventOrdering, TestQuickOrdering",
	"trace.ParseReplay":               "FuzzParseTrace, TestReplayRoundTrip",
}

// TestInternalExportsHaveProgramCallers fails on every exported
// function, method, type, const or var under dynplace/internal/ that no
// program uses. A program is any non-test file in the module; the
// Loader reads no test files. A use inside the identifier's own
// declaration does not count, nor, for a type, a use inside its own
// methods. A method that satisfies an interface of the type-checked
// closure (sort.Interface, fmt.Stringer, scheduler.Policy, …) is
// exempt: it is called through the interface.
func TestInternalExportsHaveProgramCallers(t *testing.T) {
	l := &Loader{Dir: "../.."}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		collectProgramUses(pkg, used)
	}
	ifaces := interfacesByMethod(l)

	unused := make(map[string]bool)
	for _, pkg := range pkgs {
		short, ok := strings.CutPrefix(pkg.ImportPath, "dynplace/internal/")
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused[short+"."+name] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
					unused[short+"."+name+"."+m.Name()] = true
				}
			}
		}
	}

	var stale []string
	for key := range testHooks {
		if !unused[key] {
			stale = append(stale, key)
		}
		delete(unused, key)
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("testHooks lists %s, which is gone or now has a program caller: drop the entry", key)
	}
	var report []string
	for key := range unused {
		report = append(report, key)
	}
	sort.Strings(report)
	for _, key := range report {
		t.Errorf("%s is exported but no program uses it: delete it, or add it to testHooks with the test that needs it", key)
	}
}

// collectProgramUses marks every object pkg's files use outside the
// object's own declaration. A method declaration also owns its
// receiver's type, so a type used only by its own methods stays unused.
func collectProgramUses(pkg *Package, used map[types.Object]bool) {
	mark := func(n ast.Node, owners ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			for _, owner := range owners {
				if obj == owner {
					return true
				}
			}
			used[obj] = true
			return true
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owners := []types.Object{pkg.Info.Defs[d.Name]}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if id := receiverTypeIdent(d.Recv.List[0].Type); id != nil {
						owners = append(owners, pkg.Info.Uses[id])
					}
				}
				mark(d, owners...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						mark(s, pkg.Info.Defs[s.Name])
					case *ast.ValueSpec:
						var owners []types.Object
						for _, name := range s.Names {
							owners = append(owners, pkg.Info.Defs[name])
						}
						mark(s, owners...)
					}
				}
			}
		}
	}
}

// receiverTypeIdent returns the type name of a method receiver such as
// T, *T or *T[K, V].
func receiverTypeIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// interfacesByMethod indexes, by method name, error and every
// non-generic named interface of the packages l has type-checked.
func interfacesByMethod(l *Loader) map[string][]*types.Interface {
	seen := make(map[*types.Interface]bool)
	out := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range l.typed {
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface
// that has a method called name.
func satisfiesInterface(t *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, iface := range ifaces[name] {
		if types.Implements(t, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}
