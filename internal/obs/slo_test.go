package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestBurnRateWindows drives the engine with a fake clock through a
// clean phase, a hard-burn phase, and recovery, asserting the
// multi-window rule fires only while both windows agree.
func TestBurnRateWindows(t *testing.T) {
	var good, total atomic.Int64
	rules := []BurnRule{{Short: 10 * time.Second, Long: 60 * time.Second, Threshold: 10, Severity: "page"}}
	e := NewSLOEngine([]Objective{{
		Name:   "delivery_ratio",
		Target: 0.99, // 1% error budget
		Good:   good.Load,
		Total:  total.Load,
	}}, rules)

	t0 := time.Unix(10000, 0)
	tick := func(sec int) { e.Tick(t0.Add(time.Duration(sec) * time.Second)) }

	// 60 clean seconds: 100 sends/sec, all good.
	for s := 0; s <= 60; s++ {
		if s > 0 {
			good.Add(100)
			total.Add(100)
		}
		tick(s)
	}
	st := e.Status()
	if !st.Healthy || st.Rules[0].Firing {
		t.Fatalf("clean phase unhealthy: %+v", st.Rules[0])
	}
	if st.Objectives[0].GoodRatio != 1 {
		t.Fatalf("good ratio %v, want 1", st.Objectives[0].GoodRatio)
	}

	// Hard burn: 50% failures = 50x budget burn. After 10s the short
	// window is saturated but the 60s window still averages the clean
	// minutes in — with 10 bad seconds out of 60, long burn is
	// 50/6 ≈ 8.3 < 10, so the rule must not fire yet.
	sec := 60
	for s := 1; s <= 10; s++ {
		sec++
		good.Add(50)
		total.Add(100)
		tick(sec)
	}
	st = e.Status()
	if got := st.Rules[0].ShortBurn; got < 49 || got > 51 {
		t.Fatalf("short burn %v, want ~50", got)
	}
	if st.Rules[0].Firing {
		t.Fatalf("rule fired before the long window agreed: %+v", st.Rules[0])
	}

	// Keep burning: after 50 more bad seconds the 60s window is all
	// burn, both windows agree, the page fires, healthz goes red.
	for s := 1; s <= 50; s++ {
		sec++
		good.Add(50)
		total.Add(100)
		tick(sec)
	}
	st = e.Status()
	if !st.Rules[0].Firing || st.Healthy {
		t.Fatalf("sustained burn did not page: %+v", st.Rules[0])
	}

	// Recovery: clean traffic pulls the short window back under the
	// threshold first; the rule stops firing even while the long
	// window is still hot — exactly the multi-window property.
	for s := 1; s <= 15; s++ {
		sec++
		good.Add(100)
		total.Add(100)
		tick(sec)
	}
	st = e.Status()
	if st.Rules[0].ShortBurn != 0 {
		t.Fatalf("short burn after recovery = %v, want 0", st.Rules[0].ShortBurn)
	}
	if st.Rules[0].LongBurn <= 10 {
		t.Fatalf("long burn should still exceed threshold, got %v", st.Rules[0].LongBurn)
	}
	if st.Rules[0].Firing || !st.Healthy {
		t.Fatalf("recovered system still paging: %+v", st.Rules[0])
	}
}

// TestBurnRateNoTraffic checks quiet systems never burn.
func TestBurnRateNoTraffic(t *testing.T) {
	var good, total atomic.Int64
	e := NewSLOEngine([]Objective{{Name: "x", Target: 0.999, Good: good.Load, Total: total.Load}}, DefaultBurnRules())
	t0 := time.Unix(0, 0)
	for s := 0; s < 10; s++ {
		e.Tick(t0.Add(time.Duration(s) * time.Second))
	}
	st := e.Status()
	if !st.Healthy {
		t.Fatal("idle system reported unhealthy")
	}
	for _, r := range st.Rules {
		if r.ShortBurn != 0 || r.LongBurn != 0 || r.Firing {
			t.Fatalf("idle burn: %+v", r)
		}
	}
	if st.Objectives[0].GoodRatio != 1 {
		t.Fatalf("idle good ratio %v, want 1", st.Objectives[0].GoodRatio)
	}
}

// TestBurnRateUnknownObjective covers the error path.
func TestBurnRateUnknownObjective(t *testing.T) {
	e := NewSLOEngine(nil, DefaultBurnRules())
	if _, err := e.BurnRate("nope", time.Minute); err == nil {
		t.Fatal("expected error for unknown objective")
	}
}

// TestBurnRateLongWindows: clean traffic at 100 sends/s, then a spell
// at 10 % loss, sampled once a second. Every window of the default
// rules reads its true burn within 5 % — the bad seconds over the
// window's own traffic, or over the whole history when the window is
// longer. After two clean hours and five bad minutes neither page rule
// fires: each short window burns past its threshold, but the 1 h and
// 6 h long windows do not. After four clean days and six bad hours
// every tier has wrapped and the 3 d window still reads true.
func TestBurnRateLongWindows(t *testing.T) {
	for _, tc := range []struct {
		clean, bad int // seconds
		healthy    bool
	}{
		{clean: 7200, bad: 300, healthy: true},
		{clean: 4 * 86400, bad: 6 * 3600, healthy: false},
	} {
		var good, total atomic.Int64
		e := NewSLOEngine([]Objective{{Name: "x", Target: 0.999, Good: good.Load, Total: total.Load}}, DefaultBurnRules())
		t0 := time.Unix(1000, 0)
		e.Tick(t0)
		for s := 1; s <= tc.clean+tc.bad; s++ {
			total.Add(100)
			if s <= tc.clean {
				good.Add(100)
			} else {
				good.Add(90)
			}
			e.Tick(t0.Add(time.Duration(s) * time.Second))
		}
		want := func(w time.Duration) float64 {
			secs := min(w.Seconds(), float64(tc.clean+tc.bad))
			return min(secs, float64(tc.bad)) * 10 / (secs * 100) / 0.001
		}
		near := func(what string, w time.Duration, got float64) {
			t.Helper()
			if exp := want(w); got < 0.95*exp || got > 1.05*exp {
				t.Errorf("%ds clean, %ds bad: %s burn over %v = %.2f, want %.2f ± 5 %%", tc.clean, tc.bad, what, w, got, exp)
			}
		}
		st := e.Status()
		for i, r := range DefaultBurnRules() {
			near("short", r.Short, st.Rules[i].ShortBurn)
			near("long", r.Long, st.Rules[i].LongBurn)
			got, err := e.BurnRate("x", r.Long)
			if err != nil {
				t.Fatal(err)
			}
			near("BurnRate", r.Long, got)
		}
		if st.Healthy != tc.healthy {
			t.Errorf("%ds clean, %ds bad: healthy %t, want %t: %+v", tc.clean, tc.bad, st.Healthy, tc.healthy, st.Rules)
		}
	}
}
