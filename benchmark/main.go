// Command benchmark is the one benchmark for the whole path, from the
// control-plane API call to decap at the receiving hypervisor. It is a
// module of its own so it builds without touching the repository's
// build; see README.md for the workloads, the metrics and how to run it.
//
//	bash benchmark/run.sh --workload fanout-sync --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := recoverChild(dir); err != nil {
			fmt.Fprintln(os.Stderr, "recovery child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of the five workloads; empty runs all of them, each in a process of its own")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and attaches the registries, and reports the per-layer metrics instead")
	out := fs.String("out", "", "append the full result as one JSON line to this file")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for WAL directories and span files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		agree, err := compareSets(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !agree {
			return 1
		}
		return 0
	case *workload == "":
		return runAll(args)
	case setups[*workload] == nil || *seconds <= 0 || *trace < 0 || *trace > 1:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q, or seconds/trace out of range\n", *workload)
		return 2
	}

	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: *tmp}
	res, err := runBenchmark(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if z := res.Metrics.zeroes(); !p.trace && len(z) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: end-to-end metrics read 0: %v\n", z)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, so that one
// workload's heap is not another's peak_rss_mb.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloadDefs {
		cmd := exec.Command(exe, append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
