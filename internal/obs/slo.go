package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SLO burn-rate evaluation, following the multi-window multi-burn-rate
// discipline from the Google SRE workbook: an objective is a target
// good-ratio (e.g. 99.9% of sends deliver); the burn rate over a
// window is the observed bad-ratio divided by the budgeted bad-ratio
// (1 - target), so burn 1.0 consumes the error budget exactly at the
// sustainable pace. A rule pages only when BOTH its long and short
// windows exceed the threshold — the long window proves the burn is
// sustained, the short window proves it is still happening.

// Objective is one service level objective fed by cumulative good and
// total counters (monotone, read via the supplied funcs).
type Objective struct {
	Name   string
	Target float64 // good-ratio target in (0, 1)
	Good   func() int64
	Total  func() int64
}

// BurnRule is one multi-window burn-rate alerting rule.
type BurnRule struct {
	Short     time.Duration
	Long      time.Duration
	Threshold float64
	Severity  string // "page" or "ticket"
}

// DefaultBurnRules are the SRE-workbook pairings for a 30-day budget:
// fast burns page, slow burns ticket.
func DefaultBurnRules() []BurnRule {
	return []BurnRule{
		{Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4, Severity: "page"},
		{Short: 30 * time.Minute, Long: 6 * time.Hour, Threshold: 6, Severity: "page"},
		{Short: 2 * time.Hour, Long: 24 * time.Hour, Threshold: 3, Severity: "ticket"},
		{Short: 6 * time.Hour, Long: 3 * 24 * time.Hour, Threshold: 1, Severity: "ticket"},
	}
}

// sloSample is one cumulative (good, total) reading taken at Unix
// time at (nanoseconds): 24 bytes.
type sloSample struct {
	at, good, total int64
}

// sloDepth is the samples one history tier keeps, and sloSteps the
// least spacing of each tier's samples: the first keeps every tick,
// each next one a sample at least eight times further apart. At the
// sampler's one-second cadence the tiers reach back 8.5 min, 68 min,
// 9.1 h and 72.8 h, so each window of DefaultBurnRules (up to 3 d) is
// read from the finest tier that reaches it, and starts at most one
// step — under 1 % of the window — before its nominal start. An
// objective keeps 4 × 512 × 24 B = 48 KiB of samples.
const sloDepth = 512

var sloSteps = [...]time.Duration{0, 8 * time.Second, 64 * time.Second, 512 * time.Second}

// sloRing is one tier: a ring of samples, oldest overwritten first.
type sloRing struct {
	samples      [sloDepth]sloSample
	next, filled int
}

// add keeps s when it is at least step after the newest sample.
func (r *sloRing) add(s sloSample, step time.Duration) {
	if r.filled > 0 && s.at-r.at(1).at < int64(step) {
		return
	}
	r.samples[r.next] = s
	r.next = (r.next + 1) % sloDepth
	r.filled = min(r.filled+1, sloDepth)
}

// at returns the i-th newest sample (1 = newest).
func (r *sloRing) at(i int) sloSample {
	return r.samples[(r.next-i+sloDepth)%sloDepth]
}

// sloSeries is the sample history of one objective.
type sloSeries struct {
	obj   Objective
	tiers [len(sloSteps)]sloRing
}

// burnOver computes the burn rate for the window ending at the newest
// sample, from the newest sample at least window older than it, taken
// from the finest tier that reaches that far back; when none does, the
// whole retained history is used. With fewer than two samples, or zero
// traffic in the window, it returns 0 (no evidence of burn).
func (ss *sloSeries) burnOver(window time.Duration) float64 {
	fine := &ss.tiers[0]
	if fine.filled == 0 {
		return 0
	}
	newest := fine.at(1)
	reach := max(int64(window), 1)
	base := newest
	for i := range ss.tiers {
		r := &ss.tiers[i]
		if j := sort.Search(r.filled, func(j int) bool { return newest.at-r.at(j+1).at >= reach }); j < r.filled {
			base = r.at(j + 1)
			break
		}
		if oldest := r.at(r.filled); oldest.at < base.at {
			base = oldest
		}
	}
	dTotal := newest.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := dTotal - (newest.good - base.good)
	badRatio := float64(dBad) / float64(dTotal)
	budget := 1 - ss.obj.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return badRatio / budget
}

// goodRatio is the all-time good ratio of the newest sample.
func (ss *sloSeries) goodRatio() float64 {
	if ss.tiers[0].filled == 0 {
		return 1
	}
	s := ss.tiers[0].at(1)
	if s.total == 0 {
		return 1
	}
	return float64(s.good) / float64(s.total)
}

// RuleState is one evaluated burn rule for one objective.
type RuleState struct {
	Objective string  `json:"objective"`
	Severity  string  `json:"severity"`
	Short     string  `json:"short_window"`
	Long      string  `json:"long_window"`
	Threshold float64 `json:"threshold"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Firing    bool    `json:"firing"`
}

// SLOStatus is the full health report.
type SLOStatus struct {
	Healthy    bool              `json:"healthy"`
	Objectives []ObjectiveStatus `json:"objectives"`
	Rules      []RuleState       `json:"rules"`
}

// ObjectiveStatus is one objective's topline.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Target    float64 `json:"target"`
	GoodRatio float64 `json:"good_ratio"`
	Good      int64   `json:"good"`
	Total     int64   `json:"total"`
}

// SLOEngine samples objectives and evaluates burn rules. Tick drives
// it with explicit times so tests (and the Plane's sampler) control
// the clock.
type SLOEngine struct {
	mu     sync.Mutex
	series []*sloSeries
	rules  []BurnRule
}

// NewSLOEngine builds an engine over the objectives with the given
// rules.
func NewSLOEngine(objectives []Objective, rules []BurnRule) *SLOEngine {
	e := &SLOEngine{rules: rules}
	for _, o := range objectives {
		e.series = append(e.series, &sloSeries{obj: o})
	}
	return e
}

// Tick reads every objective's cumulative counters at time now.
func (e *SLOEngine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ss := range e.series {
		s := sloSample{at: now.UnixNano(), good: ss.obj.Good(), total: ss.obj.Total()}
		for i := range ss.tiers {
			ss.tiers[i].add(s, sloSteps[i])
		}
	}
}

// Status evaluates every rule against the sampled series. Healthy
// means no page-severity rule is firing.
func (e *SLOEngine) Status() SLOStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SLOStatus{Healthy: true}
	for _, ss := range e.series {
		obj := ObjectiveStatus{Name: ss.obj.Name, Target: ss.obj.Target, GoodRatio: ss.goodRatio()}
		if ss.tiers[0].filled > 0 {
			s := ss.tiers[0].at(1)
			obj.Good, obj.Total = s.good, s.total
		}
		st.Objectives = append(st.Objectives, obj)
		for _, r := range e.rules {
			rs := RuleState{
				Objective: ss.obj.Name,
				Severity:  r.Severity,
				Short:     r.Short.String(),
				Long:      r.Long.String(),
				Threshold: r.Threshold,
				ShortBurn: ss.burnOver(r.Short),
				LongBurn:  ss.burnOver(r.Long),
			}
			rs.Firing = rs.ShortBurn >= r.Threshold && rs.LongBurn >= r.Threshold
			if rs.Firing && r.Severity == "page" {
				st.Healthy = false
			}
			st.Rules = append(st.Rules, rs)
		}
	}
	return st
}

// BurnRate reports one objective's burn over a window (for gauges).
func (e *SLOEngine) BurnRate(objective string, window time.Duration) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ss := range e.series {
		if ss.obj.Name == objective {
			return ss.burnOver(window), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown objective %q", objective)
}
