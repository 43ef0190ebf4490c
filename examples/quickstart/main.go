// Command quickstart demonstrates the Elmo public API end to end on
// the paper's Figure 3 example: build a small Clos fabric, create the
// multicast group {Ha, Hb, Hk, Hm, Hn, Hp}, send a packet from every
// member, and print what the fabric did — including the header bytes
// the sender's hypervisor pushed and the traffic cost relative to
// ideal multicast.
package main

import (
	"fmt"
	"log"

	"elmo"
	"elmo/internal/fabric"
	"elmo/internal/header"
)

func main() {
	// The running example of the paper (Figure 3): 4 pods, 2 spines
	// and 2 leaves per pod, 8 hosts per leaf.
	cl, err := elmo.NewCluster(elmo.PaperExampleTopology(), elmo.DefaultConfig(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fabric:", cl.Topo)

	// Fig. 3 members: Ha,Hb under L0; Hk under L5; Hm,Hn under L6;
	// Hp under L7.
	hosts := map[string]elmo.HostID{
		"Ha": 0, "Hb": 1, "Hk": 40, "Hm": 48, "Hn": 49, "Hp": 63,
	}
	members := make(map[elmo.HostID]elmo.Role, len(hosts))
	for _, h := range hosts {
		members[h] = elmo.RoleBoth
	}
	key := elmo.GroupKey{Tenant: 1, Group: 1}
	if err := cl.CreateGroup(key, members); err != nil {
		log.Fatal(err)
	}
	g := cl.Ctrl.Group(key)
	fmt.Printf("group %v: %d members, %d leaf p-rules, %d leaf s-rules, exact=%v\n",
		key, len(g.Members), header.RuleCount(g.Enc.DLeafSection), len(g.Enc.LeafSRules), g.Enc.Exact())

	payload := []byte("hello, source-routed multicast!")
	for name, sender := range hosts {
		d, err := cl.Send(sender, key, payload)
		if err != nil {
			log.Fatalf("send from %s: %v", name, err)
		}
		ideal := fabric.IdealBytes(cl.Topo, sender, g.Receivers(), len(payload))
		fmt.Printf("%s -> %d receivers, %d link bytes (ideal %d, overhead %.1f%%), %d hops\n",
			name, len(d.Received), d.LinkBytes, ideal,
			100*(float64(d.LinkBytes)/float64(ideal)-1), d.Hops)
	}

	// Membership change: Hc (host 2) joins as a receiver.
	if err := cl.Join(key, 2, elmo.RoleReceiver); err != nil {
		log.Fatal(err)
	}
	d, err := cl.Send(hosts["Hk"], key, payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after join of Hc: Hk -> %d receivers\n", len(d.Received))

	// Show resilience: fail a spine, traffic still arrives.
	impacted, err := cl.FailSpine(0)
	if err != nil {
		log.Fatal(err)
	}
	d, err = cl.Send(hosts["Ha"], key, payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spine 0 failed (%d groups impacted): Ha -> %d receivers, lost=%d\n",
		impacted, len(d.Received), d.Lost)
	if _, err := cl.RepairSpine(0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("spine 0 repaired; done")
}
