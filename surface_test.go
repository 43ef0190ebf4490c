package elmo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreachableSurface holds one rule over the whole tree: code
// under internal/ ships only if a non-test path from a main, the root
// package or benchmark/ reaches it, and an option exists only if some
// such caller sets it. It reads source with go/parser only:
//
//   - every internal/ package is imported, through non-test files, from
//     cmd/, examples/, the root package or benchmark/;
//   - every exported field of an internal/ *Config or *Options struct is
//     set by a non-test file — a keyed literal of the struct anywhere,
//     or an assignment (or &field) outside the declaring package, whose
//     own `if o.X == 0 { o.X = default }` is not a caller — or is one of
//     the named test seams below;
//   - every exported function and method under internal/ is named by a
//     non-test file outside its own declaration (see funcReach), or is
//     one of the named test-only functions below;
//   - the exported forks and test-only names deleted with these rules
//     stay deleted.
func TestNoUnreachableSurface(t *testing.T) {
	// Packages only tests import, on purpose.
	testSupport := map[string]string{
		"internal/raceflag": "build-tagged race-detector flag for exact-allocation tests; imports testing",
	}
	// Options no shipped caller sets, kept because a test needs the seam.
	testSeams := map[string]string{
		"internal/controller.Config.LegacyLeaves":  "§7 incremental deployment is exercised by tests and the fabric's SetLegacyLeaf only",
		"internal/controller.Config.LegacyPods":    "as LegacyLeaves, one layer up",
		"internal/controller.BatchOptions.Workers": "serial-vs-parallel equivalence tests pin the worker count",
		"internal/obs.Options.Durable":             "readiness tests pass a fake DurableStatus; no main runs obs beside a durable controller yet",
		"internal/obs.Options.FollowerAcks":        "as Durable: the replication-currency gate of /readyz",
		"internal/durable.Options.SegmentBytes":    "the snapshot-truncation test needs segments small enough to rotate",
	}
	// Exported functions and methods no shipped path calls, kept because a
	// test needs them: "dir.Name" or "dir.Type.Method".
	testOnly := map[string]string{
		"internal/bitmap.Bitmap.Or":                      "the frozen ReferenceAssign/ReferenceProcess oracles use it",
		"internal/bitmap.Bitmap.AndNot":                  "as Or: the frozen oracles",
		"internal/bitmap.Bitmap.HammingDistance":         "as Or: the frozen oracles",
		"internal/bitmap.Bitmap.ForEach":                 "as Or: the frozen oracles",
		"internal/controller.Ablation":                   "root bench_test.go regenerates the paper's §3.1 ablation through it",
		"internal/controller.NoPopBytes":                 "as Ablation: the §3.1 no-pop header sizes",
		"internal/baselines.AllLimits":                   "root bench_test.go regenerates Table 3 through it",
		"internal/baselines.XpanderFeasibility":          "root bench_test.go regenerates the §5.1.2 Xpander rows through it",
		"internal/groupgen.Summarize":                    "root bench_test.go prints the group-size distribution through it",
		"internal/fabric.Fabric.SetLegacyLeaf":           "the §7 incremental-deployment pair of the LegacyLeaves/LegacyPods test seams",
		"internal/fabric.Fabric.SetLegacyPod":            "as SetLegacyLeaf, one layer up",
		"internal/durable.ReplicaSet.AdoptFollower":      "the last step of the follower rejoin path the replication tests drive",
		"internal/multidc.Bridge.RemoveGlobalGroup":      "the bridge's teardown, the inverse of CreateGlobalGroup",
		"internal/dataplane.NetworkSwitch.SRuleCount":    "the install-walk tests read switch table occupancy through it",
		"internal/raceflag.SkipExactAllocs":              "the test-support package's one function",
		"internal/telemetry.Histogram.Quantile":          "quantile_test.go pins its Prometheus-style edge cases; retiring them is its own change",
		"internal/sim.ScalabilityResult.CoveredFraction": "root bench_test.go reports the Figure 4/5 coverage and the §5.1.3 Fmax rows through it",
	}
	// The exported forks deleted for being a second implementation of one
	// job or a hook only tests turned: "dir.Name", "dir.Type.Method" or
	// "dir.Type.Field". (A deleted package or never-set option coming back
	// is caught by the two rules above; livefabric.Config's two fields
	// would not be, as its own DefaultConfig literal set them.)
	gone := map[string]bool{
		"internal/livefabric.Config.QueueDepth":                         true,
		"internal/livefabric.Config.HostQueueDepth":                     true,
		"internal/controller.Snapshot":                                  true,
		"internal/controller.ReadSnapshot":                              true,
		"internal/controller.Controller.Restore":                        true,
		"internal/dataplane.NetworkSwitch.UpstreamPicker":               true,
		"internal/livefabric.LiveFabric.EnableCongestionAwareMultipath": true,
		"internal/reliable.Metrics":                                     true,
		"internal/header.ConsumeDownstream":                             true,
		"internal/controller.Config.Shards":                             true,
		"internal/controller.Controller.NumShards":                      true,
		"internal/controller.Controller.InspectShards":                  true,
		"internal/controller.ShardInfo":                                 true,
		"internal/wal.TruncateFrom":                                     true,
		"internal/wal.Ack":                                              true,
		"internal/wal.Log.AppendSync":                                   true,
		"internal/wal.Log.Sync":                                         true,
		"internal/wal.DefaultBatchRecords":                              true,
		"internal/durable.EncodeBatchChunks":                            true,
		"internal/durable.RecoveryStats.DroppedTail":                    true,
		"internal/churn.Config.Workers":                                 true,
		"internal/churn.Result.Workers":                                 true,
		"internal/churn.RoleFor":                                        true,
		"internal/controller.ResolveWorkers":                            true,
		// Deleted with the function rule. Name matching cannot tell a
		// method from another type's method of the same name, so these
		// are listed whether or not the rule would flag them again.
		"internal/bitmap.Bitmap.And":                      true,
		"internal/bitmap.Bitmap.OrWithGrowth":             true,
		"internal/bitmap.Union":                           true,
		"internal/chaos.Injector.RestoreHost":             true,
		"internal/chaos.Injector.HostDown":                true,
		"internal/chaos.Injector.ClearOverrides":          true,
		"internal/chaos.Injector.SwitchLoss":              true,
		"internal/chaos.Injector.Partitioned":             true,
		"internal/chaos.Injector.PartitionSize":           true,
		"internal/chaos.MonitorConfig.MaxRecoveryRetries": true,
		"internal/chaos.MonitorConfig.Sleep":              true,
		"internal/chaos.MonitorConfig.InstallFn":          true,
		"internal/chaos.DefaultMaxRecoveryRetries":        true,
		"internal/chaos.Monitor.RecoveryRetries":          true,
		"internal/controller.Controller.Occupancy":        true,
		"internal/controller.Controller.LeafSRuleCount":   true,
		"internal/controller.Controller.SpineSRuleCount":  true,
		"internal/controller.BatchResult.Workers":         true,
		"internal/dataplane.Hypervisor.Encapsulated":      true,
		"internal/dataplane.Hypervisor.Delivered":         true,
		"internal/dataplane.Hypervisor.Filtered":          true,
		"internal/dataplane.SwitchScratch.Stamped":        true,
		"internal/durable.Detector.Misses":                true,
		"internal/durable.EncodeCreate":                   true,
		"internal/durable.EncodeMembership":               true,
		"internal/durable.EncodeRemove":                   true,
		"internal/durable.EncodeBatch":                    true,
		"internal/durable.EncodeHeartbeat":                true,
		"internal/fabric.WireEngine.Malformed":            true,
		"internal/fabric.WireEngine.HostDrops":            true,
		"internal/groupgen.PaperConfig":                   true,
		"internal/livefabric.LiveFabric.Drain":            true,
		"internal/livefabric.LiveFabric.HostDrops":        true,
		"internal/livefabric.LiveFabric.Malformed":        true,
		"internal/livefabric.LiveFabric.SetMetrics":       true,
		"internal/livefabric.NewMetrics":                  true,
		"internal/obs.LinkTable.Totals":                   true,
		"internal/p4gen.PaperOptions":                     true,
		"internal/placement.PaperConfig":                  true,
		"internal/reliable.Receiver.Pending":              true,
		"internal/rsm.Replica.Fenced":                     true,
		"internal/metrics.Summary.Min":                    true,
		"internal/sim.ScalabilityResult.Table":            true,
		"internal/telemetry.LinearBuckets":                true,
		"internal/topology.FailureSet.HealthySpinePlanes": true,
		"internal/topology.Topology.HostsUnderLeaf":       true,
		"internal/topology.TwoTierLeafSpine":              true,
		"internal/udpfabric.UDPFabric.HostAddr":           true,
		"internal/udpfabric.UDPFabric.SendErrors":         true,
		"internal/udpfabric.UDPFabric.Malformed":          true,
		"internal/udpfabric.UDPFabric.HostDrops":          true,
		"internal/wal.Log.NextLSN":                        true,
		// Only tests copied an assignment; the rule missed it because
		// any ".Clone" selector (bitmap.Bitmap.Clone) counted.
		"internal/cluster.Assignment.Clone": true,
	}

	fset, files := parseShipped(t)

	// 1. Reachability over non-test imports.
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, f := range files[dir] {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "elmo" {
					visit(".")
				} else if strings.HasPrefix(p, "elmo/") {
					visit(strings.TrimPrefix(p, "elmo/"))
				}
			}
		}
	}
	visit(".")
	for dir, fs := range files {
		if fs[0].Name.Name == "main" {
			visit(dir)
		}
	}
	for dir := range files {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] && testSupport[dir] == "" {
			t.Errorf("%s: no non-test path from cmd/, examples/, the root package or benchmark/ imports it", dir)
		}
	}
	for dir := range testSupport {
		if reached[dir] {
			t.Errorf("%s is imported by shipped code now; drop it from testSupport", dir)
		}
	}

	// 2. Options, and 3. the deleted names.
	options := map[string]token.Pos{} // "dir.Type.Field" of every exported option field
	optionType := map[string]bool{}   // "dir.Type"
	ownField := map[string]bool{}     // "dir.Field": dir declares an option field of that name
	declared := func(dir, name string, pos token.Pos) {
		if gone[dir+"."+name] {
			t.Errorf("%s: %s is back; it was deleted because no shipped path took it", fset.Position(pos), name)
		}
	}
	for dir, fs := range files {
		for _, f := range fs {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if decl.Recv != nil {
						name = recvName(decl.Recv.List[0].Type) + "." + name
					}
					declared(dir, name, decl.Pos())
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, n := range vs.Names {
								declared(dir, n.Name, n.Pos())
							}
						}
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						declared(dir, ts.Name.Name, ts.Pos())
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						isOption := strings.HasPrefix(dir, "internal/") &&
							(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options"))
						if isOption {
							optionType[dir+"."+ts.Name.Name] = true
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								declared(dir, ts.Name.Name+"."+n.Name, n.Pos())
								if isOption && n.IsExported() {
									options[dir+"."+ts.Name.Name+"."+n.Name] = n.Pos()
									ownField[dir+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	// set[field name] lists the option types a non-test file sets the
	// field of: the literal's own type when it is written out, "" (any
	// type with such a field) for an assignment, an &field or a literal
	// whose type is elided.
	set := map[string]map[string]bool{}
	mark := func(field, typ string) {
		if set[field] == nil {
			set[field] = map[string]bool{}
		}
		set[field][typ] = true
	}
	for dir, fs := range files {
		for _, f := range fs {
			imports := map[string]string{} // local name -> package dir
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(p, "elmo/") {
					continue
				}
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "elmo/")
			}
			// Selector writes inside the declaring package are its own
			// defaulting, not a caller's choice.
			write := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok && !ownField[dir+"."+sel.Sel.Name] {
					mark(sel.Sel.Name, "")
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := ""
					switch lt := n.Type.(type) {
					case *ast.Ident:
						typ = dir + "." + lt.Name
					case *ast.SelectorExpr:
						if x, ok := lt.X.(*ast.Ident); ok {
							typ = imports[x.Name] + "." + lt.Sel.Name
						}
					}
					if typ != "" && !optionType[typ] {
						break
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								mark(k.Name, typ)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}
	var unset []string
	for key := range options {
		typ, field := key[:strings.LastIndex(key, ".")], key[strings.LastIndex(key, ".")+1:]
		isSet := set[field][typ] || set[field][""]
		switch {
		case !isSet && testSeams[key] == "":
			unset = append(unset, key)
		case isSet && testSeams[key] != "":
			t.Errorf("%s is set by shipped code now; drop it from testSeams", key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: %s is an option no non-test caller sets; make it a constant, or name the test seam it is", fset.Position(options[key]), key)
	}
	for key := range testSeams {
		if _, ok := options[key]; !ok {
			t.Errorf("testSeams names %s, which is not an exported option field", key)
		}
	}
	t.Logf("%d exported Config/Options fields under internal/, %d of them test seams", len(options), len(testSeams))

	// 4. Functions and methods.
	decls, reachedFn := funcReach(fset, files)
	var unreached []string
	for key := range decls {
		switch {
		case !reachedFn[key] && testOnly[key] == "":
			unreached = append(unreached, key)
		case reachedFn[key] && testOnly[key] != "":
			t.Errorf("%s is called by shipped code now; drop it from testOnly", key)
		}
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s: %s is named by no non-test file; delete it, or name the test that needs it in testOnly", fset.Position(decls[key]), key)
	}
	for key := range testOnly {
		if _, ok := decls[key]; !ok {
			t.Errorf("testOnly names %s, which is not an exported function or method under internal/", key)
		}
	}
	t.Logf("%d exported functions and methods under internal/, %d of them test-only", len(decls), len(testOnly))
}

// parseShipped parses every non-test Go file under the repository root
// (benchmark/ included), keyed by package directory.
func parseShipped(t *testing.T) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package dir -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files[dir] = append(files[dir], file)
		return nil
	})
	if err != nil || len(files["."]) == 0 {
		t.Fatalf("no source found: %v", err)
	}
	return fset, files
}

// TestSectionGrammarHasOneHome keeps what a section looks like on the
// wire written down in internal/header only (go/parser, non-test files):
//
//   - tag order: outside internal/header nothing orders a header.Tag*
//     constant with <, >, <= or >= — "the stream from section X on" is
//     header.Seek's to answer;
//   - section sizes: controller/encoder.go and the dataplane budget and
//     walk sections through header's size functions and readers, never
//     with bitmap.ByteLen arithmetic of their own;
//   - identifier width: p4gen takes a downstream identifier's width from
//     Layout.IdentifierBits (and an INT record's from
//     header.INTIdentifierBits), never from a literal 16 — no `16*` and
//     no `bit<16>` identifier field in its format strings;
//   - one encoder: outside benchmark/ (whose header kernel times exactly
//     that) no function decodes a sender's stream with HeaderFor only to
//     header.Encode it again — Controller.SenderStream has the bytes.
func TestSectionGrammarHasOneHome(t *testing.T) {
	fset, files := parseShipped(t)
	isHeader := func(e ast.Expr, prefix string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, prefix) {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "header"
	}
	p4genWidths := false // p4gen asks the layout for identifier widths
	for dir, fs := range files {
		if dir == "internal/header" {
			continue
		}
		for _, f := range fs {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			noByteLen := file == "internal/controller/encoder.go" || dir == "internal/dataplane"
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if dir == "internal/p4gen" && n.Kind == token.STRING && literalIDField.MatchString(n.Value) {
						t.Errorf("%s: literal identifier width in %s; use the layout's IdentifierBits", fset.Position(n.Pos()), n.Value)
					}
				case *ast.BinaryExpr:
					switch n.Op {
					case token.LSS, token.GTR, token.LEQ, token.GEQ:
						if isHeader(n.X, "Tag") || isHeader(n.Y, "Tag") {
							t.Errorf("%s: orders a section tag; ask header.Seek", fset.Position(n.Pos()))
						}
					case token.MUL:
						for _, e := range []ast.Expr{n.X, n.Y} {
							if lit, ok := e.(*ast.BasicLit); ok && lit.Value == "16" && dir == "internal/p4gen" {
								t.Errorf("%s: literal identifier width; use the layout's IdentifierBits", fset.Position(n.Pos()))
							}
						}
					}
				case *ast.SelectorExpr:
					if dir == "internal/p4gen" && n.Sel.Name == "IdentifierBits" {
						p4genWidths = true
					}
					if noByteLen && n.Sel.Name == "ByteLen" {
						t.Errorf("%s: sizes a section by hand; use header's size functions", fset.Position(n.Pos()))
					}
				case *ast.FuncDecl:
					if n.Body == nil || strings.HasPrefix(dir, "benchmark") {
						break
					}
					var decodes, encodes bool
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HeaderFor" {
								decodes = true
							}
							if isHeader(call.Fun, "Encode") || isHeader(call.Fun, "AppendEncode") {
								encodes = true
							}
						}
						return true
					})
					if decodes && encodes {
						t.Errorf("%s: %s round-trips stream -> Header -> stream; call Controller.SenderStream",
							fset.Position(n.Pos()), n.Name.Name)
					}
				}
				return true
			})
		}
	}
	if !p4genWidths {
		t.Error("internal/p4gen never asks a layout for IdentifierBits: its identifier fields are not the wire's")
	}
}

// literalIDField matches a P4 identifier field declared at a literal 16
// bits in a format string.
var literalIDField = regexp.MustCompile(`bit<16>\s*(ids|my_id|switch_id)\b`)

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestFuncReachRule runs the function rule on an in-memory tree: a
// function only a _test.go file calls is flagged, and so is one whose
// only caller is itself; one named as pkg.Name, taken as a method
// value, declared by an interface, called bare inside its own package,
// or named String is not.
func TestFuncReachRule(t *testing.T) {
	src := map[string]string{
		"internal/a/a.go": `package a

type T struct{}

func (T) Value()         {}
func (T) ViaIface()      {}
func (T) Unused()        {}
func (T) String() string { return "" }

type I interface{ ViaIface() }

func Qualified() {}
func Bare()      {}
func OnlyTests() {}
func Recursive() { Recursive() }

func helper() { Bare() }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OnlyTests(); T{}.Unused() }
`,
		"cmd/m/main.go": `package main

import "elmo/internal/a"

func main() {
	a.Qualified()
	f := a.T{}.Value
	f()
}
`,
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for name, body := range src {
		f, err := parser.ParseFile(fset, name, body, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Dir(name)] = append(files[filepath.Dir(name)], f)
	}
	decls, reached := funcReach(fset, files)
	want := map[string]bool{ // key -> reached
		"internal/a.T.Value": true, "internal/a.T.ViaIface": true, "internal/a.T.String": true,
		"internal/a.Qualified": true, "internal/a.Bare": true,
		"internal/a.T.Unused": false, "internal/a.OnlyTests": false, "internal/a.Recursive": false,
	}
	if len(decls) != len(want) {
		t.Errorf("declared %d exported functions, want %d", len(decls), len(want))
	}
	for key, w := range want {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s not declared", key)
		} else if reached[key] != w {
			t.Errorf("%s: reached = %v, want %v", key, reached[key], w)
		}
	}
}

// funcReach finds every exported function and method declared in a
// non-test file under internal/, keyed "dir.Name" or "dir.Type.Method",
// and reports which of them a non-test file names outside the
// declaration itself. A package function is named as pkg.Name from an
// importer or as a bare Name inside its own package; a method by any
// .Name selector (a call, a method value or a method expression). Names
// are matched, not types: a method counts as reached when any selector
// anywhere shares its name, when an interface in the tree declares that
// name, or when it is String, Error or Unwrap. files holds parsed files
// keyed by package directory; _test.go files among them are skipped.
func funcReach(fset *token.FileSet, files map[string][]*ast.File) (decls map[string]token.Pos, reached map[string]bool) {
	decls = map[string]token.Pos{}
	reached = map[string]bool{}
	isTest := func(f *ast.File) bool {
		return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
	}
	declKey := func(dir string, fd *ast.FuncDecl) string {
		if fd.Recv != nil {
			return dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		return dir + "." + fd.Name.Name
	}
	byName := map[string][]string{} // method name -> keys of the methods so named
	for dir, fs := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range fs {
			if isTest(f) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					key := declKey(dir, fd)
					decls[key] = fd.Pos()
					if fd.Recv != nil {
						byName[fd.Name.Name] = append(byName[fd.Name.Name], key)
					}
				}
			}
		}
	}
	methodUse := func(name, from string) {
		for _, key := range byName[name] {
			if key != from {
				reached[key] = true
			}
		}
	}
	for _, name := range []string{"String", "Error", "Unwrap"} {
		methodUse(name, "")
	}
	for dir, fs := range files {
		for _, f := range fs {
			if isTest(f) {
				continue
			}
			imports := map[string]string{} // local name -> package dir
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(p, "elmo/") {
					continue
				}
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "elmo/")
			}
			for _, decl := range f.Decls {
				from := "" // the declaration a use sits in
				var nodes []ast.Node
				if fd, ok := decl.(*ast.FuncDecl); ok {
					from = declKey(dir, fd)
					nodes = []ast.Node{fd.Type}
					if fd.Recv != nil {
						nodes = append(nodes, fd.Recv)
					}
					if fd.Body != nil {
						nodes = append(nodes, fd.Body)
					}
				} else {
					nodes = []ast.Node{decl}
				}
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								methodUse(name.Name, "")
							}
						}
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							if key := imports[x.Name] + "." + n.Sel.Name; key != from {
								reached[key] = true
							}
							return false
						}
						methodUse(n.Sel.Name, from)
						ast.Inspect(n.X, visit)
						return false
					case *ast.Ident:
						if key := dir + "." + n.Name; key != from {
							reached[key] = true
						}
					}
					return true
				}
				for _, n := range nodes {
					ast.Inspect(n, visit)
				}
			}
		}
	}
	return decls, reached
}
