// Command marketdata emulates the paper's headline enterprise workload
// (§1: "financial services … stock tickers and trading workloads"): a
// market-data feed handler multicasts ticks for several symbols to
// subscriber desks over the live (concurrent, wire-level) Elmo fabric,
// with in-band telemetry tracing the replication paths.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/livefabric"
	"elmo/internal/topology"
)

// tick is a 16-byte market-data record.
type tick struct {
	Symbol uint32
	Seq    uint32
	Price  uint64 // micro-dollars
}

func (t tick) marshal() []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint32(b[0:], t.Symbol)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint64(b[8:], t.Price)
	return b
}

func parseTick(b []byte) (tick, error) {
	if len(b) < 16 {
		return tick{}, fmt.Errorf("short tick")
	}
	return tick{
		Symbol: binary.BigEndian.Uint32(b[0:]),
		Seq:    binary.BigEndian.Uint32(b[4:]),
		Price:  binary.BigEndian.Uint64(b[8:]),
	}, nil
}

func main() {
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(2)
	cfg.EnableINT = true // trace replication paths (§7 Monitoring)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	base.SetFailures(ctrl.Failures())
	lf := livefabric.New(base)

	// One multicast group per symbol; the feed handler runs on host 0,
	// desks subscribe across pods.
	symbols := []string{"ACME", "GLOBEX", "INITECH"}
	desks := [][]topology.HostID{
		{1, 8, 40, 56},  // ACME desks
		{9, 17, 41, 57}, // GLOBEX desks
		{2, 18, 49, 63}, // INITECH desks
	}
	feed := topology.HostID(0)
	for i := range symbols {
		key := controller.GroupKey{Tenant: 42, Group: uint32(i + 1)}
		members := map[topology.HostID]controller.Role{feed: controller.RoleSender}
		for _, d := range desks[i] {
			members[d] = controller.RoleReceiver
		}
		if _, err := ctrl.CreateGroup(key, members); err != nil {
			log.Fatal(err)
		}
		if _, err := base.InstallGroupAt(0, ctrl, key); err != nil {
			log.Fatal(err)
		}
	}

	lf.Start()
	defer lf.Stop()

	// Desk goroutines: consume ticks, track last price per symbol.
	var wg sync.WaitGroup
	const ticksPerSymbol = 200
	type deskReport struct {
		host  topology.HostID
		count int
		last  tick
		hops  int
	}
	reports := make(chan deskReport, 16)
	allDesks := map[topology.HostID]bool{}
	for _, ds := range desks {
		for _, d := range ds {
			allDesks[d] = true
		}
	}
	for d := range allDesks {
		wg.Add(1)
		go func(h topology.HostID) {
			defer wg.Done()
			r := deskReport{host: h}
			timeout := time.After(10 * time.Second)
			for r.count < ticksPerSymbol {
				select {
				case p := <-lf.HostRx(h):
					tk, err := parseTick(p.Inner)
					if err != nil {
						log.Printf("desk %d: %v", h, err)
						return
					}
					r.count++
					r.last = tk
					r.hops = len(p.Telemetry)
				case <-timeout:
					reports <- r
					return
				}
			}
			reports <- r
		}(d)
	}

	// The feed handler publishes interleaved ticks for all symbols.
	rng := rand.New(rand.NewSource(7))
	prices := []uint64{101_500_000, 88_250_000, 12_750_000}
	start := time.Now()
	for seq := 0; seq < ticksPerSymbol; seq++ {
		for i := range symbols {
			prices[i] += uint64(rng.Intn(20_001)) - 10_000
			tk := tick{Symbol: uint32(i), Seq: uint32(seq), Price: prices[i]}
			addr := dataplane.GroupAddr{VNI: 42, Group: uint32(i + 1)}
			if err := lf.Send(feed, addr, tk.marshal()); err != nil {
				log.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)

	wg.Wait()
	close(reports)
	fmt.Printf("published %d ticks across %d symbols in %v (%.0f ticks/s, one send per tick)\n",
		3*ticksPerSymbol, len(symbols), elapsed.Round(time.Millisecond),
		float64(3*ticksPerSymbol)/elapsed.Seconds())
	for r := range reports {
		fmt.Printf("  desk host %-2d received %3d ticks; last %s @ $%.4f seq=%d; replication path %d hops\n",
			r.host, r.count, symbols[r.last.Symbol], float64(r.last.Price)/1e6, r.last.Seq, r.hops)
		if r.count != ticksPerSymbol {
			log.Fatalf("desk %d missed ticks: %d/%d", r.host, r.count, ticksPerSymbol)
		}
	}

	// Show one replication trace via INT.
	addr := dataplane.GroupAddr{VNI: 42, Group: 1}
	if err := lf.Send(feed, addr, tick{Symbol: 0, Seq: 9999, Price: 1}.marshal()); err != nil {
		log.Fatal(err)
	}
	select {
	case p := <-lf.HostRx(56):
		fmt.Printf("INT trace to host 56: ")
		for i, rec := range p.Telemetry {
			if i > 0 {
				fmt.Print(" -> ")
			}
			tier := map[uint8]string{header.INTTierLeaf: "leaf", header.INTTierSpine: "spine", header.INTTierCore: "core"}[rec.Tier]
			fmt.Printf("%s %d", tier, rec.ID)
		}
		fmt.Println()
	case <-time.After(5 * time.Second):
		log.Fatal("trace packet lost")
	}
	fmt.Println("done: every desk received every tick of its symbol, one network copy per tick.")
}
