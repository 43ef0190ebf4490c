package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// bulk-recover: the operator-visible path, without fsync. One operation
// is a whole restart cycle on a fresh directory: InstallBatch of every
// group, Snapshot, a tail of joins past the snapshot, a crash (no
// Close), and durable.Open in a freshly exec'd child of this binary,
// because a real restart pays a cold heap. The recovered fingerprint
// must equal the pre-crash one.

const (
	bulkGroups = 20000
	// One join per bulkTailEvery groups follows the snapshot, so
	// recovery replays log records as well as restoring the snapshot.
	bulkTailEvery = 20
	// bulkVerifySends groups of the warm-up cycle are installed on a
	// fabric and sent to once, so bulk-installed state is checked down
	// to decap and the exact wire counts exist on this workload too.
	bulkVerifySends = 2000
)

// childEnv selects the recovery child; its value is the directory.
const childEnv = "ELMO_BENCH_RECOVER_DIR"

type tailJoin struct {
	Key  GroupKey
	Host HostID
}

type bulkSUT struct {
	topo   *Topology
	cfg    CtrlConfig
	groups []groupInput
	specs  []GroupSpec
	tail   []tailJoin
	tmpDir string
	exact  exactCounts
	digest string
	setup  tally
	reg    *Registry  // set in the traced run only
	phases bulkPhases // of the last timed phase
}

func (s *bulkSUT) describe() (exactCounts, tally, string) { return s.exact, s.setup, s.digest }

// bulkPhases sums the phases of the cycles run so far.
type bulkPhases struct {
	cycles                     int
	installS, snapshotS, openS float64
	recSnapshotS, recReplayS   float64
	snapshotBytes              int64
	replayRecords              int
	replayRateSum              float64
	recoveredGrp               int64
}

func setupBulk(p params, reg *Registry) (*bulkSUT, error) {
	topo, err := newTopology(benchTopo)
	if err != nil {
		return nil, err
	}
	s := &bulkSUT{topo: topo, cfg: paperConfig(0), tmpDir: p.tmpDir, reg: reg}
	if s.groups, err = generateGroups(topo, benchTenants, p.scaled(bulkGroups), p.seed); err != nil {
		return nil, err
	}
	dg := newDigester(p.workload)
	dg.groups(s.groups)
	s.specs = make([]GroupSpec, len(s.groups))
	for i := range s.groups {
		g := &s.groups[i]
		s.specs[i] = g.spec()
		if i%bulkTailEvery != 0 {
			continue
		}
		for _, h := range g.Pool {
			if _, in := g.Members[h]; !in {
				s.tail = append(s.tail, tailJoin{Key: g.Key, Host: h})
				dg.u64(uint64(g.Key.Group), uint64(h))
				break
			}
		}
	}
	s.digest = dg.sum()
	var warm timed
	s.cycle(&warm, nil, true)
	s.setup = warm.tally
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up cycle: %w", warm.first)
	}
	return s, nil
}

func (s *bulkSUT) close() error { return nil }

// childReport is what the recovery child prints.
type childReport struct {
	OpenS       float64  `json:"open_s"`
	PeakRSSKB   int64    `json:"peak_rss_kb"`
	Fingerprint string   `json:"fingerprint"`
	Recovery    recovery `json:"recovery"`
}

// recoverChild is the body of the exec'd child: time durable.Open on
// the crashed directory and report what it rebuilt.
func recoverChild(dir string) error {
	topo, err := newTopology(benchTopo)
	if err != nil {
		return err
	}
	start := time.Now()
	ctl, rec, err := openDurable(topo, paperConfig(0), dir, true, nil)
	if err != nil {
		return err
	}
	rep := childReport{OpenS: time.Since(start).Seconds(), Recovery: rec}
	rep.Fingerprint = ctl.fingerprint()
	if err := ctl.close(); err != nil {
		return err
	}
	if rep.PeakRSSKB, err = vmHWM(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// vmHWM is this process's peak resident set in KiB. Unlike ru_maxrss it
// does not start at the peak of the process that exec'd this one.
func vmHWM() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	var kb int64
	if _, err := fmt.Sscanf(rest, "%d kB", &kb); err != nil {
		return 0, fmt.Errorf("VmHWM: %w", err)
	}
	return kb, nil
}

func runRecoverChild(dir string) (childReport, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("recovery child: %w", err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("recovery child output %q: %w", out, err)
	}
	return rep, nil
}

// cycle runs one restart cycle and counts it in out: units are groups
// recovered, elapsed is the time the system (not the harness) took.
func (s *bulkSUT) cycle(out *timed, ctx *spanCtx, warmup bool) {
	out.check(s.cycleErr(out, ctx, warmup))
}

func (s *bulkSUT) cycleErr(out *timed, ctx *spanCtx, warmup bool) error {
	dir, err := os.MkdirTemp(s.tmpDir, "bulk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctl, _, err := openDurable(s.topo, s.cfg, dir, true, s.reg)
	if err != nil {
		return err
	}
	// The instance is abandoned, not closed, until the child has read
	// the directory: that is the crash.
	defer ctl.close()

	t0 := time.Now()
	ctx.beginOp("op.cycle", out.attempted, t0)
	if _, err := ctl.installBatch(s.specs); err != nil {
		return err
	}
	t1 := time.Now()
	ctx.leaf("durable.install_batch", t0, t1)
	installed := t1.Sub(t0)
	if warmup {
		if err := s.verifyForwarding(ctl); err != nil {
			return err
		}
		t1 = time.Now()
	}
	if err := ctl.snapshot(); err != nil {
		return err
	}
	t2 := time.Now()
	ctx.leaf("durable.snapshot", t1, t2)
	for _, j := range s.tail {
		if err := ctl.join(j.Key, j.Host, RoleReceiver); err != nil {
			return err
		}
	}
	t3 := time.Now()
	ctx.leaf("durable.join_tail", t2, t3)
	ctx.leaveAt(t3)

	fingerprint, groups := ctl.fingerprint(), ctl.numGroups()
	if ctx != nil {
		rate, n, err := walReplayRate(dir, 1)
		if err != nil {
			return err
		}
		s.phases.replayRateSum += rate
		s.phases.replayRecords += n
	}

	rep, err := runRecoverChild(dir)
	if err != nil {
		return err
	}
	if err := checkRecovery(fingerprint, rep.Fingerprint, groups, rep.Recovery.Groups); err != nil {
		return err
	}
	out.childPeakKB = max(out.childPeakKB, rep.PeakRSSKB)
	busy := installed + t3.Sub(t1) + time.Duration(rep.OpenS*float64(time.Second))
	// Each cycle is a slice of its own: a run holds about fifteen, so the
	// median is the only percentile they support.
	out.units += float64(groups)
	sl := &out.slices
	sl.rates = append(sl.rates, float64(groups)/busy.Seconds())
	sl.p50s = append(sl.p50s, float64(busy.Microseconds()))
	sl.tails = append(sl.tails, float64(busy.Microseconds()))
	sl.tailQ = 0.5
	sl.samples++
	if !warmup {
		ph := &s.phases
		ph.cycles++
		ph.installS += installed.Seconds()
		ph.snapshotS += t2.Sub(t1).Seconds()
		ph.openS += rep.OpenS
		ph.recSnapshotS += rep.Recovery.SnapshotS
		ph.recReplayS += rep.Recovery.ReplayS
		ph.snapshotBytes = rep.Recovery.SnapshotBytes
		ph.recoveredGrp += int64(rep.Recovery.Groups)
	}
	return nil
}

// verifyForwarding classifies every bulk-installed group and checks one
// send for the first few on a fabric installed from the durable
// controller's state.
func (s *bulkSUT) verifyForwarding(ctl *control) error {
	s.exact = exactCounts{}
	for i := range s.groups {
		if err := s.exact.classify(ctl, s.groups[i].Key); err != nil {
			return err
		}
	}
	fab := newSyncFabric(s.topo, ctl, nil)
	for i := 0; i < min(bulkVerifySends, len(s.groups)); i++ {
		g := &s.groups[i]
		if _, err := fab.install(ctl, g.Key); err != nil {
			return err
		}
		d, err := fab.send(g.Senders[0], g.Key, frameTemplate)
		if err != nil {
			return err
		}
		if err := checkSend(d, g.Receivers, g.Senders[0], frameTemplate); err != nil {
			return fmt.Errorf("group %v: %w", g.Key, err)
		}
		s.exact.addSend(s.topo, d, g.Senders[0], g.Receivers)
	}
	return nil
}

// timedPhase repeats restart cycles until the time is up.
func (s *bulkSUT) timedPhase(seconds float64, traced bool) timed {
	out, ph, ctx := beginPhase(seconds, traced, 0)
	s.phases = bulkPhases{}
	for time.Now().Before(ph.end()) {
		s.cycle(&out, ctx, false)
	}
	return out
}

func (s *bulkSUT) layerMetrics(m metrics, tr timed) error {
	ph := s.phases
	if ph.cycles == 0 {
		return fmt.Errorf("no restart cycle completed in the traced phase")
	}
	n := float64(ph.cycles)
	groups := float64(len(s.specs))
	m.set("durable.install_groups_per_s", groups*n/ph.installS, "1/s", ph.cycles)
	m.set("durable.snapshot_s", ph.snapshotS/n, "s", ph.cycles)
	m.set("durable.snapshot_bytes", float64(ph.snapshotBytes), "B", 0)
	m.set("durable.recovery_groups_per_s", float64(ph.recoveredGrp)/ph.openS, "1/s", ph.cycles)
	m.set("durable.recover_snapshot_s", ph.recSnapshotS/n, "s", ph.cycles)
	m.set("durable.recover_replay_s", ph.recReplayS/n, "s", ph.cycles)
	m.set("wal.replay_records_per_s", ph.replayRateSum/n, "1/s", ph.replayRecords)
	// One durable op here is one logged record's worth of work: a batch
	// chunk or a tail join.
	snap := s.reg.Snapshot()
	walLayerMetrics(m, snap, 0)
	m.set("controller.join_us", histMeanMicros(snap, "elmo_controller_op_duration_seconds", `op="join"`), "us", len(s.tail)*ph.cycles)
	return controlKernels(m, s.topo, s.cfg, nil, s.groups)
}
