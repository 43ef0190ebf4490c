package dataplane

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestProbeIsTheOnlySeam scans the non-test source of the four
// data-path packages and fails if an instrument is reached around the
// probe: only probe.go may call a FlowObserver, a FaultInjector or a
// trace.Recorder, and the per-device hooks and fan-out setters the
// probe replaced must not come back.
func TestProbeIsTheOnlySeam(t *testing.T) {
	// Instrument methods only probe.go may call. Cross is the
	// injector's when it takes three arguments (Probe.Cross takes four).
	instrument := map[string]bool{"ObserveLink": true, "ObserveSend": true, "CorruptWire": true, "Record": true}
	// Names that must not be declared again, and struct fields that
	// must not reappear.
	gone := map[string]bool{"SetCounters": true, "SwitchKind": true, "FaultsOn": true, "ObsOn": true}
	noField := map[string][]string{
		"NetworkSwitch": {"Tracer", "Counters"},
		"Hypervisor":    {"Tracer", "Counters"},
		"Fabric":        {"tracer", "injector", "metrics", "observer"},
	}
	fset := token.NewFileSet()
	for _, pkg := range []string{"dataplane", "fabric", "livefabric", "udpfabric"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no source found for package %s: %v", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			isProbe := pkg == "dataplane" && filepath.Base(path) == "probe.go"
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || isProbe {
						break
					}
					recv, _ := sel.X.(*ast.Ident)
					if instrument[sel.Sel.Name] || (sel.Sel.Name == "Cross" && len(n.Args) == 3) ||
						(sel.Sel.Name == "On" && recv != nil && recv.Name == "trace") {
						t.Errorf("%s: calls %s outside dataplane/probe.go", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.FuncDecl:
					if gone[n.Name.Name] {
						t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name.Name)
					}
					if pkg == "fabric" && (n.Name.Name == "SetTracer" || n.Name.Name == "SetMetrics") {
						ast.Inspect(n, func(m ast.Node) bool {
							switch m.(type) {
							case *ast.ForStmt, *ast.RangeStmt:
								t.Errorf("%s: %s loops; attaching an instrument is one store into the probe",
									fset.Position(m.Pos()), n.Name.Name)
							}
							return true
						})
					}
				case *ast.TypeSpec:
					if gone[n.Name.Name] {
						t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name.Name)
					}
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						break
					}
					if n.Name.Name == "Probe" && st.Fields.NumFields() != 4 {
						t.Errorf("%s: Probe has %d fields; it holds the four instruments and nothing else",
							fset.Position(n.Pos()), st.Fields.NumFields())
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							for _, banned := range noField[n.Name.Name] {
								if name.Name == banned {
									t.Errorf("%s: %s.%s is back; instruments live in the probe",
										fset.Position(name.Pos()), n.Name.Name, banned)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
}
