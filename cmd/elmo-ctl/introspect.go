package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"elmo/internal/controller"
	"elmo/internal/obs"
)

// runIntrospect implements `elmo-ctl introspect <what>`: a read-only
// HTTP client for the ops plane served on a telemetry listener
// (elmo-ctl -metrics, elmo-sim -metrics, or any embedding process).
//
//	elmo-ctl introspect [-addr host:port] groups
//	elmo-ctl introspect [-addr host:port] group <vni> <group>
//	elmo-ctl introspect [-addr host:port] [-n 10] links
//	elmo-ctl introspect [-addr host:port] controller
//	elmo-ctl introspect [-addr host:port] slo
func runIntrospect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("introspect", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "localhost:9090", "ops-plane address")
	n := fs.Int("n", 10, "entries to show (links, heavy hitters)")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: elmo-ctl introspect [-addr host:port] [-n N] groups|group <vni> <gid>|links|controller|slo")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("introspect: need a subcommand")
	}
	c := &introspectClient{base: "http://" + *addr, out: out,
		http: &http.Client{Timeout: 5 * time.Second}}
	switch rest[0] {
	case "groups":
		return c.groups(*n)
	case "group":
		if len(rest) != 3 {
			return fmt.Errorf("introspect group: need <vni> <group>")
		}
		return c.group(rest[1], rest[2])
	case "links":
		return c.links(*n)
	case "controller":
		return c.controller()
	case "slo":
		return c.slo()
	default:
		fs.Usage()
		return fmt.Errorf("introspect: unknown subcommand %q", rest[0])
	}
}

type introspectClient struct {
	base string
	out  io.Writer
	http *http.Client
}

func (c *introspectClient) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, string(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *introspectClient) groups(top int) error {
	var gr obs.GroupsResponse
	if err := c.get(fmt.Sprintf("/debug/elmo/groups?top=%d", top), &gr); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%d groups\n", gr.TotalGroups)
	for _, g := range gr.Groups {
		srules := ""
		if g.UsesSRules {
			srules = " +s-rules"
		}
		exact := "exact"
		if !g.Exact {
			exact = "default"
		}
		fmt.Fprintf(c.out, "  vni=%d group=%d  members=%d (s=%d r=%d)  %s%s\n",
			g.VNI, g.Group, g.Members, g.Senders, g.Receivers, exact, srules)
	}
	if len(gr.HeavyHitters) > 0 {
		fmt.Fprintf(c.out, "heavy hitters (%d packets observed):\n", gr.SketchTotal)
		for _, h := range gr.HeavyHitters {
			fmt.Fprintf(c.out, "  vni=%d group=%d  ~%d pkts (±%d)  %d bytes\n",
				h.VNI, h.Group, h.Count, h.Err, h.Bytes)
		}
	}
	return nil
}

func (c *introspectClient) group(vni, gid string) error {
	var d controller.GroupDetail
	if err := c.get("/debug/elmo/group/"+vni+"/"+gid, &d); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "vni=%d group=%d  members=%d (s=%d r=%d)  exact=%v s-rules=%v R=%d\n",
		d.VNI, d.Group, d.Members, d.Senders, d.Receivers, d.Exact, d.UsesSRules, d.Redundancy)
	fmt.Fprint(c.out, "members:")
	for _, m := range d.MemberList {
		fmt.Fprintf(c.out, " %d:%s", m.Host, m.Role)
	}
	fmt.Fprintln(c.out)
	fmt.Fprintln(c.out, "tree:")
	for _, tl := range d.Tree {
		fmt.Fprintf(c.out, "  leaf %d (pod %d) -> ports %v\n", tl.Leaf, tl.Pod, tl.Ports)
	}
	e := d.Encoding
	fmt.Fprintf(c.out, "encoding: pods=%v  spine p=%d leaf p=%d  spine s=%d leaf s=%d  defaults spine=%v leaf=%v\n",
		e.Pods, e.SpinePRules, e.LeafPRules, e.SpineSRules, e.LeafSRules, e.SpineDefault, e.LeafDefault)
	fmt.Fprintln(c.out, "sender headers:")
	for _, h := range d.Headers {
		if h.Err != "" {
			fmt.Fprintf(c.out, "  host %d: err %s\n", h.Sender, h.Err)
			continue
		}
		fmt.Fprintf(c.out, "  host %d: %d bytes\n", h.Sender, h.Bytes)
	}
	return nil
}

func (c *introspectClient) links(n int) error {
	var lr obs.LinksResponse
	if err := c.get(fmt.Sprintf("/debug/elmo/links?n=%d", n), &lr); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%d directed links; top %d by rate:\n", lr.NumLinks, len(lr.Top))
	for _, l := range lr.Top {
		fmt.Fprintf(c.out, "  %-22s %12.0f B/s  %10d B  %8d pkts\n",
			l.Name, l.BytesSec, l.Bytes, l.Packets)
	}
	return nil
}

func (c *introspectClient) controller() error {
	var ci obs.ControllerResponse
	if err := c.get("/debug/elmo/controller", &ci); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%d groups\n", ci.TotalGroups)
	fmt.Fprintf(c.out, "updates: hypervisor=%d leaf=%d spine=%d core=%d\n",
		ci.HypervisorUpdates, ci.LeafUpdates, ci.SpineUpdates, ci.CoreUpdates)
	if d := ci.Durable; d != nil {
		fmt.Fprintf(c.out, "durable: epoch=%d wal_lsn=%d snapshot_lsn=%d (lag %d records) leader=%v lease_misses=%d\n",
			d.Epoch, d.WALLSN, d.SnapshotLSN, d.SnapshotLag, d.Leader, d.LeaseMisses)
		if d.FollowersTotal > 0 {
			fmt.Fprintf(c.out, "replication: %d/%d followers current\n", d.FollowersAcked, d.FollowersTotal)
		}
		if d.LeaderErr != "" {
			fmt.Fprintf(c.out, "leader err: %s\n", d.LeaderErr)
		}
		if d.ReplicationErr != "" {
			fmt.Fprintf(c.out, "replication err: %s\n", d.ReplicationErr)
		}
	}
	return nil
}

func (c *introspectClient) slo() error {
	var st obs.SLOStatus
	if err := c.get("/debug/elmo/slo", &st); err != nil {
		return err
	}
	health := "HEALTHY"
	if !st.Healthy {
		health = "UNHEALTHY"
	}
	fmt.Fprintln(c.out, health)
	for _, o := range st.Objectives {
		fmt.Fprintf(c.out, "  %-16s target=%.4f good=%.6f (%d/%d)\n",
			o.Name, o.Target, o.GoodRatio, o.Good, o.Total)
	}
	for _, r := range st.Rules {
		firing := ""
		if r.Firing {
			firing = "  FIRING"
		}
		fmt.Fprintf(c.out, "  %-16s %-6s %s/%s burn %.2f/%.2f (threshold %.1f)%s\n",
			r.Objective, r.Severity, r.Short, r.Long, r.ShortBurn, r.LongBurn, r.Threshold, firing)
	}
	return nil
}
