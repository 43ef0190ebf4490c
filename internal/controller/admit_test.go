package controller

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elmo/internal/topology"
)

// TestOneAdmissionSite keeps the admission protocol in one place: the
// admission mutex is taken only by admit.go, by ReadState (which
// installs encodings verbatim) and by RemoveGroup (which only
// releases); occupancy is charged only by admit.go and ReadState and
// released only by admit.go and group teardown. The hand-written copies
// of the protocol, the batch pipeline's third stage, the JSON
// snapshot's second restore path, the hash-partitioned group map, the
// per-controller scratch pool and the biased single-op speculation must
// not come back; nor may a bulk path's own worker pool: inOrder is the
// only function in the package that starts goroutines or makes channels.
func TestOneAdmissionSite(t *testing.T) {
	// What may appear outside admit.go, by enclosing function.
	allowed := map[string]map[string]bool{
		"admit.Lock": {"ReadState": true, "RemoveGroup": true},
		"Commit":     {"ReadState": true},
		"Release":    {"releaseSRulesCharged": true},
	}
	gone := map[string]bool{
		"installBarrierLocked": true, "applySlice": true, "applyItem": true,
		"applyFlushSize": true, "applyQueueDepth": true,
		"admitEncodingLocked": true, "ctrlShard": true, "shardOf": true,
		"getScratch": true, "putScratch": true, "leafBias": true, "podBias": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source found: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && gone[id.Name] {
				t.Errorf("%s: %s is back", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if path == "admit.go" {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt, *ast.ChanType:
					if fn.Name.Name != "inOrder" {
						t.Errorf("%s: %s starts goroutines or makes channels; every bulk path runs on inOrder",
							fset.Position(n.Pos()), fn.Name.Name)
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				what := sel.Sel.Name
				if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "admit" {
					what = "admit." + what
				}
				if in, guarded := allowed[what]; guarded && !in[fn.Name.Name] {
					t.Errorf("%s: %s calls %s; admission lives in admit.go", fset.Position(call.Pos()), fn.Name.Name, what)
				}
				return true
			})
		}
	}
}

// TestAdmitEncodingRestoresOccupancyOnError: when the encoding is not
// published — publish refuses it, after a speculation that validated or
// after a recompute, or the recompute itself fails — the counters read
// exactly what they read before the call, with the replaced encoding
// still charged.
func TestAdmitEncodingRestoresOccupancyOnError(t *testing.T) {
	topo := paperTopo()
	cfg := testConfig(0)
	cfg.LeafRuleLimit = 2 // the Figure 3 group spills onto s-rules
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := map[topology.HostID]Role{}
	for _, h := range figure3Receivers() {
		members[h] = RoleBoth
	}
	g, err := c.CreateGroup(GroupKey{Tenant: 1, Group: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Enc.UsesSRules() {
		t.Fatal("setup: the replaced encoding holds no s-rule")
	}
	receivers := append(figure3Receivers(), 17)
	encode := func(cap CapacityFunc) (*Encoding, error) {
		return ComputeEncoding(topo, cfg, cap, receivers)
	}
	refused := errors.New("publish refused")
	encodeFails := func(CapacityFunc) (*Encoding, error) { return nil, ErrLegacyTableFull }
	speculate := func() *capRecorder {
		sp := newCapRecorder(c.occ)
		sp.enc, sp.err = encode(sp.capacity())
		return sp
	}
	stale := func() *capRecorder {
		sp := speculate()
		if len(sp.leafAns) == 0 {
			t.Fatal("setup: the speculation consumed no capacity answer")
		}
		for l, ans := range sp.leafAns {
			sp.leafAns[l] = !ans // answers that no longer hold
		}
		return sp
	}

	for _, tc := range []struct {
		name     string
		sp       *capRecorder
		encode   encodeFunc
		atCommit bool
		want     error
	}{
		{"publish fails after a valid speculation", speculate(), encodeFails, false, refused},
		{"publish fails after a recompute", stale(), encode, true, refused},
		{"publish fails with nothing speculated", nil, encode, true, refused},
		{"recompute fails", stale(), encodeFails, true, ErrLegacyTableFull},
	} {
		leavesBefore, spinesBefore := occSnapshot(c)
		published := false
		atCommit, err := c.occ.admitEncoding(func() (*Encoding, error) { return g.Enc, nil }, tc.sp, tc.encode, func(*Encoding) error {
			published = true
			return refused
		})
		if !errors.Is(err, tc.want) || atCommit != tc.atCommit {
			t.Fatalf("%s: atCommit=%t err=%v, want atCommit=%t err=%v", tc.name, atCommit, err, tc.atCommit, tc.want)
		}
		if published != (tc.want == refused) {
			t.Fatalf("%s: publish called = %t", tc.name, published)
		}
		leaves, spines := occSnapshot(c)
		if !reflect.DeepEqual(leaves, leavesBefore) || !reflect.DeepEqual(spines, spinesBefore) {
			t.Fatalf("%s: occupancy %v/%v, want the pre-call %v/%v", tc.name, leaves, spines, leavesBefore, spinesBefore)
		}
		requireOccupancyConserved(t, c)
	}
}
