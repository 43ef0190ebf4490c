package elmo

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests the nested benchmark/ module from
// the root module, so an internal/* change that breaks the harness's
// one import seam (benchmark/sut.go), its oracles or its determinism
// checks fails `go test ./...` here rather than the next benchmark run.
// benchmark/ has its own go.mod (replace elmo => ../), which hides it
// from the root module's ./... patterns.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark module's suite (several seconds); skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
