package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the recovery child, the way the
// benchmark binary does: bulk-recover execs os.Executable().
func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := recoverChild(dir); err != nil {
			fmt.Fprintln(os.Stderr, "recovery child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func smokeParams(t *testing.T, workload string, seed int64, trace bool) params {
	return params{workload: workload, seed: seed, seconds: 0.12, trace: trace, scale: 200, tmpDir: t.TempDir(), setupReps: 1}
}

// TestSmokeAllWorkloads runs all five workloads at 1/200 scale, untraced
// and traced, and holds every result to the contract.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			p := smokeParams(t, w.Name, 1, trace)
			res, err := runBenchmark(p)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d of %d (%s)", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.FirstErr)
			}
			if res.Digest == "" || res.Host.GoVersion == "" || res.Host.NumCPU == 0 || res.Host.WALFilesystem == "" {
				t.Errorf("%s: incomplete header %+v digest %q", w.Name, res.Host, res.Digest)
			}
			if want := map[bool]string{true: "loopback", false: "in-process"}[w.Name == "fanout-udp"]; res.Host.Transport != want {
				t.Errorf("%s: transport %q, want %q", w.Name, res.Host.Transport, want)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the contract's object: %v", w.Name, err)
			}
			want := len(endToEndDefs)
			if trace {
				want = len(perLayerDefs)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != want {
				t.Errorf("%s trace=%t: last line has %d metrics, want %d", w.Name, trace, len(last.Metrics), want)
			}
			if trace {
				if _, err := os.Stat(p.tmpDir + "/trace/" + w.Name + "-seed1.jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if r := res.Metrics["harness.trace_overhead_ratio"].Value; r <= 0 {
					t.Errorf("%s: trace_overhead_ratio = %g", w.Name, r)
				}
				// The layers' spans must account for the op span.
				if r := res.Metrics["harness.op_self_ratio"].Value; r < 0 || r > 0.10 {
					t.Errorf("%s: %.1f%% of the op span is covered by no layer span", w.Name, r*100)
				}
			}
		}
	}
}

// TestSeedDeterminism: equal seeds give equal op sequences and equal
// exact counts; different seeds differ.
func TestSeedDeterminism(t *testing.T) {
	exactNames := []string{"prule_coverage", "wire_overhead_ratio"}
	for _, w := range workloadDefs {
		run := func(seed int64) *result {
			res, err := runBenchmark(smokeParams(t, w.Name, seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			return res
		}
		a, b, c := run(5), run(5), run(6)
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 5 gave digests %s and %s", w.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", w.Name, a.Digest)
		}
		for _, name := range exactNames {
			if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].N != b.Metrics[name].N {
				t.Errorf("%s: %s differs between two runs of seed 5: %v vs %v", w.Name, name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
	// So do the counts behind the traced run's fabric.*_per_send.
	var prev exactCounts
	for i := 0; i < 2; i++ {
		s, err := setupFanout(smokeParams(t, "fanout-degraded", 5, false), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (s.exact != prev || s.exact.Hops == 0 || s.exact.LinkBytes == 0) {
			t.Errorf("exact counts %+v then %+v at one seed", prev, s.exact)
		}
		prev = s.exact
	}
}

// TestRecoveryChildRejectsWrongState drives the child-process recovery
// path directly and shows the oracle sees through it.
func TestRecoveryChildRejectsWrongState(t *testing.T) {
	s, err := setupBulk(smokeParams(t, "bulk-recover", 3, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.setup.attempted != 1 || s.setup.failed != 0 {
		t.Fatalf("warm-up cycle: %+v", s.setup)
	}
	tr := s.timedPhase(0.05, false)
	if tr.failed != 0 || tr.attempted == 0 || tr.units != float64(tr.attempted*len(s.specs)) {
		t.Fatalf("timed cycles: %d failed of %d, %g groups recovered (first: %v)", tr.failed, tr.attempted, tr.units, tr.first)
	}
	if _, err := runRecoverChild(t.TempDir() + "/missing/dir\x00"); err == nil {
		t.Fatal("a child that cannot open its directory reported success")
	}
}
