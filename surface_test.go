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
//   - the exported forks deleted with that rule stay deleted.
func TestNoUnreachableSurface(t *testing.T) {
	// Packages only tests import, on purpose.
	testSupport := map[string]string{
		"internal/raceflag": "build-tagged race-detector flag for exact-allocation tests; imports testing",
	}
	// Options no shipped caller sets, kept because a test needs the seam.
	testSeams := map[string]string{
		"internal/controller.Config.LegacyLeaves":         "§7 incremental deployment is exercised by tests and the fabric's SetLegacyLeaf only",
		"internal/controller.Config.LegacyPods":           "as LegacyLeaves, one layer up",
		"internal/controller.BatchOptions.Workers":        "serial-vs-parallel equivalence tests pin the worker count",
		"internal/chaos.MonitorConfig.MaxRecoveryRetries": "the retry-exhaustion test shortens the budget",
		"internal/chaos.MonitorConfig.Sleep":              "tests replace time.Sleep to observe the backoff schedule",
		"internal/chaos.MonitorConfig.InstallFn":          "tests inject transient install errors",
		"internal/obs.Options.Durable":                    "readiness tests pass a fake DurableStatus; no main runs obs beside a durable controller yet",
		"internal/obs.Options.FollowerAcks":               "as Durable: the replication-currency gate of /readyz",
		"internal/durable.Options.SegmentBytes":           "the snapshot-truncation test needs segments small enough to rotate",
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
		"internal/controller.ResolveWorkers":                            true,
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
			t.Errorf("%s: %s is back; it was deleted as a fork no shipped path took", fset.Position(pos), name)
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
