// Command elmo-ctl is an interactive driver for the Elmo controller
// and emulated fabric: a line-oriented command interface over stdin or
// TCP (mirroring how cloud APIs front the controller, §2). It creates
// groups, changes membership, injects failures, sends packets, and
// prints the controller's view — rule breakdowns, header bytes, and
// update statistics.
//
// Usage:
//
//	elmo-ctl                          # read commands from stdin
//	elmo-ctl -listen :7070            # serve the same protocol over TCP
//	elmo-ctl -metrics :9090           # also serve the ops plane (JSON
//	                                  # introspection, /metrics, health)
//	elmo-ctl introspect [-addr ...] groups|group|links|controller|slo
//	                                  # query a running ops plane
//
// Protocol (one command per line, responses end with "ok" or "err:"):
//
//	create <vni> <group> <host>:<s|r|b> [<host>:<role>...]
//	join   <vni> <group> <host> <s|r|b>
//	leave  <vni> <group> <host> <s|r|b>
//	remove <vni> <group>
//	send   <vni> <group> <sender> <message...>
//	header <vni> <group> <sender>
//	show   <vni> <group>
//	fail   spine|core <id>
//	repair spine|core <id>
//	stats
//	save   <path>            write the controller's state (members + encodings)
//	load   <path>            restore that state into an empty controller of the same topology
//	quit
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"elmo"
	"elmo/internal/header"
	"elmo/internal/obs"
	"elmo/internal/telemetry"
)

func main() {
	// `elmo-ctl introspect ...` is a client of an already-running ops
	// plane; it has its own FlagSet, so dispatch before flag.Parse.
	if len(os.Args) > 1 && os.Args[1] == "introspect" {
		if err := runIntrospect(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	var (
		listen  = flag.String("listen", "", "TCP address to serve (empty = stdin)")
		metrics = flag.String("metrics", "", "ops-plane address (/metrics, /debug/elmo/*, health; empty = off)")
		pods    = flag.Int("pods", 4, "pods")
		spines  = flag.Int("spines", 2, "spines per pod")
		leaves  = flag.Int("leaves", 2, "leaves per pod")
		hosts   = flag.Int("hosts", 8, "hosts per leaf")
		cores   = flag.Int("cores", 2, "cores per plane")
		r       = flag.Int("r", 2, "redundancy limit R")
	)
	flag.Parse()

	cl, err := elmo.NewCluster(elmo.TopologyConfig{
		Pods: *pods, SpinesPerPod: *spines, LeavesPerPod: *leaves,
		HostsPerLeaf: *hosts, CoresPerPlane: *cores,
	}, elmo.DefaultConfig(*r))
	if err != nil {
		log.Fatal(err)
	}
	srv := &server{cl: cl}

	if *metrics != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntime(reg)
		plane := obs.New(obs.Options{
			Topology:   cl.Topo,
			Registry:   reg,
			Controller: cl.Ctrl,
		})
		cl.Fab.SetObserver(plane)
		plane.Enable()
		defer plane.StartSampler()()
		tsrv, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer tsrv.Close()
		plane.Mount(tsrv)
		fmt.Printf("ops plane on http://%s (try `elmo-ctl introspect -addr %s groups`)\n",
			tsrv.Addr(), tsrv.Addr())
	}

	if *listen == "" {
		fmt.Printf("elmo-ctl on %s — type 'help'\n", cl.Topo)
		srv.session(os.Stdin, os.Stdout)
		return
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("elmo-ctl serving on %s (%s)", ln.Addr(), cl.Topo)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("accept: %v", err)
			return
		}
		go func() {
			defer conn.Close()
			srv.session(conn, conn)
		}()
	}
}

// server serializes access to the cluster across sessions.
type server struct {
	mu sync.Mutex
	cl *elmo.Cluster
}

func (s *server) session(in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(out)
	defer w.Flush()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			fmt.Fprintln(w, "bye")
			w.Flush()
			return
		}
		s.mu.Lock()
		resp := s.dispatch(line)
		s.mu.Unlock()
		fmt.Fprintln(w, resp)
		w.Flush()
	}
}

func (s *server) dispatch(line string) string {
	f := strings.Fields(line)
	var err error
	var out string
	switch f[0] {
	case "help":
		return helpText
	case "create":
		out, err = s.create(f[1:])
	case "join", "leave":
		out, err = s.member(f[0], f[1:])
	case "remove":
		out, err = s.remove(f[1:])
	case "send":
		out, err = s.send(f[1:])
	case "header":
		out, err = s.header(f[1:])
	case "show":
		out, err = s.show(f[1:])
	case "fail", "repair":
		out, err = s.failRepair(f[0], f[1:])
	case "stats":
		out, err = s.stats()
	case "save", "load":
		out, err = s.saveLoad(f[0], f[1:])
	default:
		err = fmt.Errorf("unknown command %q (try 'help')", f[0])
	}
	if err != nil {
		return "err: " + err.Error()
	}
	return out + "\nok"
}

const helpText = `commands:
  create <vni> <group> <host>:<s|r|b> [...]   create a group
  join   <vni> <group> <host> <s|r|b>         add/extend a member
  leave  <vni> <group> <host> <s|r|b>         remove a member role
  remove <vni> <group>                        delete the group
  send   <vni> <group> <sender> <msg...>      multicast a message
  header <vni> <group> <sender>               show the sender's header
  show   <vni> <group>                        show the group encoding
  fail   spine|core <id>                      inject a failure
  repair spine|core <id>                      repair a switch
  stats                                       controller update counters
  save   <path>                               write controller state (members + encodings, binary)
  load   <path>                               restore a saved state into an empty controller of the same topology
  quit
ok`

func parseKey(f []string) (elmo.GroupKey, []string, error) {
	if len(f) < 2 {
		return elmo.GroupKey{}, nil, fmt.Errorf("need <vni> <group>")
	}
	vni, err := strconv.ParseUint(f[0], 10, 24)
	if err != nil {
		return elmo.GroupKey{}, nil, fmt.Errorf("bad vni: %v", err)
	}
	g, err := strconv.ParseUint(f[1], 10, 24)
	if err != nil {
		return elmo.GroupKey{}, nil, fmt.Errorf("bad group: %v", err)
	}
	return elmo.GroupKey{Tenant: uint32(vni), Group: uint32(g)}, f[2:], nil
}

func parseRole(s string) (elmo.Role, error) {
	switch s {
	case "s":
		return elmo.RoleSender, nil
	case "r":
		return elmo.RoleReceiver, nil
	case "b":
		return elmo.RoleBoth, nil
	}
	return 0, fmt.Errorf("role must be s, r, or b")
}

func (s *server) create(f []string) (string, error) {
	key, rest, err := parseKey(f)
	if err != nil {
		return "", err
	}
	if len(rest) == 0 {
		return "", fmt.Errorf("need at least one <host>:<role>")
	}
	members := make(map[elmo.HostID]elmo.Role, len(rest))
	for _, m := range rest {
		parts := strings.SplitN(m, ":", 2)
		if len(parts) != 2 {
			return "", fmt.Errorf("member %q must be <host>:<role>", m)
		}
		h, err := strconv.Atoi(parts[0])
		if err != nil {
			return "", fmt.Errorf("bad host %q", parts[0])
		}
		role, err := parseRole(parts[1])
		if err != nil {
			return "", err
		}
		if _, dup := members[elmo.HostID(h)]; dup {
			return "", fmt.Errorf("host %d named twice", h)
		}
		members[elmo.HostID(h)] = role
	}
	if err := s.cl.CreateGroup(key, members); err != nil {
		return "", err
	}
	return fmt.Sprintf("group %v created with %d members", key, len(members)), nil
}

func (s *server) member(op string, f []string) (string, error) {
	key, rest, err := parseKey(f)
	if err != nil {
		return "", err
	}
	if len(rest) != 2 {
		return "", fmt.Errorf("need <host> <role>")
	}
	h, err := strconv.Atoi(rest[0])
	if err != nil {
		return "", fmt.Errorf("bad host %q", rest[0])
	}
	role, err := parseRole(rest[1])
	if err != nil {
		return "", err
	}
	if op == "join" {
		err = s.cl.Join(key, elmo.HostID(h), role)
	} else {
		err = s.cl.Leave(key, elmo.HostID(h), role)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d %s", op, h, rest[1]), nil
}

func (s *server) remove(f []string) (string, error) {
	key, _, err := parseKey(f)
	if err != nil {
		return "", err
	}
	if err := s.cl.RemoveGroup(key); err != nil {
		return "", err
	}
	return "removed", nil
}

func (s *server) send(f []string) (string, error) {
	key, rest, err := parseKey(f)
	if err != nil {
		return "", err
	}
	if len(rest) < 1 {
		return "", fmt.Errorf("need <sender> [message]")
	}
	h, err := strconv.Atoi(rest[0])
	if err != nil {
		return "", fmt.Errorf("bad sender %q", rest[0])
	}
	msg := strings.Join(rest[1:], " ")
	if msg == "" {
		msg = "ping"
	}
	d, err := s.cl.Send(elmo.HostID(h), key, []byte(msg))
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

func (s *server) header(f []string) (string, error) {
	key, rest, err := parseKey(f)
	if err != nil {
		return "", err
	}
	if len(rest) != 1 {
		return "", fmt.Errorf("need <sender>")
	}
	h, err := strconv.Atoi(rest[0])
	if err != nil {
		return "", err
	}
	wire, err := s.cl.Ctrl.SenderStream(key, elmo.HostID(h))
	if err != nil {
		return "", err
	}
	hdr, _, err := header.Decode(header.LayoutFor(s.cl.Topo), wire)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "header for sender %d: %d bytes on the wire\n", h, len(wire))
	if hdr.ULeaf != nil {
		fmt.Fprintf(&sb, "  u-leaf : down=%s multipath=%v up=%s\n", hdr.ULeaf.Down, hdr.ULeaf.Multipath, hdr.ULeaf.Up)
	}
	if hdr.USpine != nil {
		fmt.Fprintf(&sb, "  u-spine: down=%s multipath=%v up=%s\n", hdr.USpine.Down, hdr.USpine.Multipath, hdr.USpine.Up)
	}
	if hdr.Core != nil {
		fmt.Fprintf(&sb, "  core   : pods=%s\n", hdr.Core)
	}
	for _, r := range hdr.DSpine {
		fmt.Fprintf(&sb, "  d-spine: %s -> pods %v\n", r.Bitmap, r.Switches)
	}
	if hdr.DSpineDefault != nil {
		fmt.Fprintf(&sb, "  d-spine default: %s\n", hdr.DSpineDefault)
	}
	for _, r := range hdr.DLeaf {
		fmt.Fprintf(&sb, "  d-leaf : %s -> leaves %v\n", r.Bitmap, r.Switches)
	}
	if hdr.DLeafDefault != nil {
		fmt.Fprintf(&sb, "  d-leaf default: %s\n", hdr.DLeafDefault)
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

func (s *server) show(f []string) (string, error) {
	key, _, err := parseKey(f)
	if err != nil {
		return "", err
	}
	g := s.cl.Ctrl.Group(key)
	if g == nil {
		return "", fmt.Errorf("group %v not found", key)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "group %v: %d members (%d senders, %d receivers)\n",
		key, len(g.Members), len(g.Senders()), len(g.Receivers()))
	fmt.Fprintf(&sb, "  exact=%v  spine p-rules=%d  leaf p-rules=%d  spine s-rules=%d  leaf s-rules=%d",
		g.Enc.Exact(), header.RuleCount(g.Enc.DSpineSection), header.RuleCount(g.Enc.DLeafSection), len(g.Enc.SpineSRules), len(g.Enc.LeafSRules))
	return sb.String(), nil
}

func (s *server) failRepair(op string, f []string) (string, error) {
	if len(f) != 2 {
		return "", fmt.Errorf("need spine|core <id>")
	}
	id, err := strconv.Atoi(f[1])
	if err != nil {
		return "", err
	}
	var n int
	switch {
	case f[0] == "spine" && op == "fail":
		n, err = s.cl.FailSpine(elmo.SpineID(id))
	case f[0] == "spine" && op == "repair":
		n, err = s.cl.RepairSpine(elmo.SpineID(id))
	case f[0] == "core" && op == "fail":
		n, err = s.cl.FailCore(elmo.CoreID(id))
	case f[0] == "core" && op == "repair":
		n, err = s.cl.RepairCore(elmo.CoreID(id))
	default:
		return "", fmt.Errorf("need spine|core")
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s %d: %d groups impacted", op, f[0], id, n), nil
}

// stateHeader is the first line of a saved state file. The state stream
// itself carries no topology (bitmap widths are implied by the reader's),
// so a file saved under other -pods/-spines/-leaves/-hosts/-cores would
// misparse; load refuses a file whose header is not this server's.
func (s *server) stateHeader() []byte {
	return fmt.Appendf(nil, "elmo-ctl state %+v\n", s.cl.Topo.Config())
}

func (s *server) saveLoad(op string, f []string) (string, error) {
	if len(f) != 1 {
		return "", fmt.Errorf("need <path>")
	}
	path := f[0]
	if op == "save" {
		buf := bytes.NewBuffer(s.stateHeader())
		if err := s.cl.Ctrl.WriteState(buf); err != nil {
			return "", err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return "", err
		}
		return fmt.Sprintf("saved %d groups to %s", s.cl.Ctrl.NumGroups(), path), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	state, ok := bytes.CutPrefix(data, s.stateHeader())
	if !ok {
		return "", fmt.Errorf("%s was not saved under this topology (want first line %q)", path, s.stateHeader())
	}
	if err := s.cl.Ctrl.ReadState(bytes.NewReader(state)); err != nil {
		return "", err
	}
	// Reinstall every restored group into the data plane.
	for _, key := range s.cl.Ctrl.GroupKeys() {
		if _, err := s.cl.Fab.InstallGroupAt(0, s.cl.Ctrl, key); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("restored %d groups from %s", s.cl.Ctrl.NumGroups(), path), nil
}

func (s *server) stats() (string, error) {
	st := s.cl.Ctrl.Stats()
	hv, lf, sp := 0, 0, 0
	for _, v := range st.Hypervisor {
		hv += v
	}
	for _, v := range st.Leaf {
		lf += v
	}
	for _, v := range st.Spine {
		sp += v
	}
	return fmt.Sprintf("updates issued: hypervisor=%d leaf=%d spine=%d core=%d groups=%d",
		hv, lf, sp, st.Core, s.cl.Ctrl.NumGroups()), nil
}
