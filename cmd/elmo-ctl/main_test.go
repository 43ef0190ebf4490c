package main

import (
	"bufio"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"elmo"
)

func testServer(t *testing.T) *server {
	t.Helper()
	cl, err := elmo.NewCluster(elmo.PaperExampleTopology(), elmo.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return &server{cl: cl}
}

func TestDispatchLifecycle(t *testing.T) {
	s := testServer(t)
	steps := []struct {
		cmd      string
		wantOK   bool
		contains string
	}{
		{"help", true, "commands:"},
		{"create 1 1 0:b 1:r 40:b", true, "created with 3 members"},
		{"create 1 1 0:b", false, "already exists"},
		{"show 1 1", true, "3 members"},
		{"send 1 1 0 hello", true, "delivered=2"},
		{"header 1 1 0", true, "u-leaf"},
		{"header 1 1 1", false, "not a sender"},
		{"join 1 1 8 r", true, "join 8 r"},
		{"send 1 1 40 x", true, "delivered=3"},
		{"leave 1 1 8 r", true, "leave 8 r"},
		{"fail spine 0", true, "1 groups impacted"},
		{"send 1 1 0 y", true, "delivered=2"},
		{"repair spine 0", true, "repair spine 0"},
		{"stats", true, "core=0"},
		{"remove 1 1", true, "removed"},
		{"send 1 1 0 z", false, "err"},
		{"bogus", false, "unknown command"},
		{"create 1", false, "need <vni> <group>"},
		{"create 9999999999 1 0:b", false, "bad vni"},
		{"create 1 2 0:x", false, "role must be"},
		{"create 1 2 0:b 0:r", false, "host 0 named twice"},
		{"fail core notanum", false, "err"},
	}
	for _, st := range steps {
		resp := s.dispatch(st.cmd)
		ok := strings.HasSuffix(resp, "\nok") || resp == helpText
		if ok != st.wantOK {
			t.Fatalf("%q: ok=%v, resp=%q", st.cmd, ok, resp)
		}
		if !strings.Contains(resp, st.contains) {
			t.Fatalf("%q: response %q missing %q", st.cmd, resp, st.contains)
		}
	}
}

// TestFailRepairRejectsUnknownSwitch: a switch id that does not exist
// is an error line, not a panic in the topology and not a phantom entry
// in the failure set, and the server keeps answering.
func TestFailRepairRejectsUnknownSwitch(t *testing.T) {
	s := testServer(t)
	for _, cmd := range []string{"fail spine 9999", "fail spine -1", "repair core 9999", "fail core 9999", "repair spine -1"} {
		if resp := s.dispatch(cmd); !strings.HasPrefix(resp, "err:") || !strings.Contains(resp, "out of range") {
			t.Fatalf("%q: response %q, want an out-of-range error", cmd, resp)
		}
		if sp, co := s.cl.Ctrl.Failures().NumFailed(); sp != 0 || co != 0 {
			t.Fatalf("%q left %d spines and %d cores failed", cmd, sp, co)
		}
	}
	if resp := s.dispatch("fail spine 0"); !strings.HasSuffix(resp, "\nok") {
		t.Fatalf("server stopped serving after rejected ids: %q", resp)
	}
}

// TestSendRejectsUnknownHost: a sender outside the topology is an error
// line, not an index panic in the fabric (which in -listen mode would
// end every session), and the server keeps delivering.
func TestSendRejectsUnknownHost(t *testing.T) {
	s := testServer(t)
	if resp := s.dispatch("create 1 1 0:b 40:b"); !strings.Contains(resp, "created") {
		t.Fatalf("create: %q", resp)
	}
	for _, cmd := range []string{"send 1 1 99999 hi", "send 1 1 -1 hi", "send 1 1 64 hi"} {
		if resp := s.dispatch(cmd); !strings.HasPrefix(resp, "err:") || !strings.Contains(resp, "out of range") {
			t.Fatalf("%q: response %q, want an out-of-range error", cmd, resp)
		}
	}
	if resp := s.dispatch("send 1 1 0 hi"); !strings.Contains(resp, "delivered=1") {
		t.Fatalf("send after rejected hosts: %q", resp)
	}
}

// TestSessionOverTCP exercises the real network path: a TCP listener,
// a client connection, and the line protocol.
func TestSessionOverTCP(t *testing.T) {
	s := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		s.session(conn, conn)
	}()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(conn)

	send := func(cmd string) string {
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("read after %q: %v", cmd, err)
			}
			out.WriteString(line)
			trimmed := strings.TrimSpace(line)
			if trimmed == "ok" || strings.HasPrefix(trimmed, "err:") || trimmed == "bye" {
				return out.String()
			}
		}
	}

	if resp := send("create 2 5 0:b 40:r"); !strings.Contains(resp, "created") {
		t.Fatalf("create: %q", resp)
	}
	if resp := send("send 2 5 0 over tcp"); !strings.Contains(resp, "delivered=1") {
		t.Fatalf("send: %q", resp)
	}
	if resp := send("bad command here"); !strings.Contains(resp, "err:") {
		t.Fatalf("bad: %q", resp)
	}
	if resp := send("quit"); !strings.Contains(resp, "bye") {
		t.Fatalf("quit: %q", resp)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, _, err := parseKey([]string{"1"}); err == nil {
		t.Fatal("short key accepted")
	}
	if _, _, err := parseKey([]string{"x", "1"}); err == nil {
		t.Fatal("bad vni accepted")
	}
	if _, _, err := parseKey([]string{"1", "y"}); err == nil {
		t.Fatal("bad group accepted")
	}
	key, rest, err := parseKey([]string{"3", "4", "extra"})
	if err != nil || key.Tenant != 3 || key.Group != 4 || len(rest) != 1 {
		t.Fatalf("parseKey = %v %v %v", key, rest, err)
	}
	for s, want := range map[string]elmo.Role{"s": elmo.RoleSender, "r": elmo.RoleReceiver, "b": elmo.RoleBoth} {
		got, err := parseRole(s)
		if err != nil || got != want {
			t.Fatalf("parseRole(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseRole("q"); err == nil {
		t.Fatal("bad role accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := testServer(t)
	if resp := s.dispatch("create 3 3 0:b 40:r 63:r"); !strings.Contains(resp, "created") {
		t.Fatalf("create: %q", resp)
	}
	path := t.TempDir() + "/ctl.state"
	if resp := s.dispatch("save " + path); !strings.Contains(resp, "saved 1 groups") {
		t.Fatalf("save: %q", resp)
	}
	// A fresh server restores the group — members, encoding and
	// occupancy, verbatim — and can immediately send.
	s2 := testServer(t)
	if resp := s2.dispatch("load " + path); !strings.Contains(resp, "restored 1 groups") {
		t.Fatalf("load: %q", resp)
	}
	if got, want := s2.cl.Ctrl.Fingerprint(), s.cl.Ctrl.Fingerprint(); got != want {
		t.Fatalf("loaded fingerprint %s, saved %s", got, want)
	}
	if resp := s2.dispatch("send 3 3 0 after restore"); !strings.Contains(resp, "delivered=2") {
		t.Fatalf("send after restore: %q", resp)
	}
	if resp := s2.dispatch("load /nonexistent/ctl.state"); !strings.Contains(resp, "err:") {
		t.Fatalf("bad load: %q", resp)
	}
	// A load into a controller that already holds groups is refused whole.
	if resp := s2.dispatch("load " + path); !strings.Contains(resp, "err:") || s2.cl.Ctrl.NumGroups() != 1 {
		t.Fatalf("load into non-empty controller: %q", resp)
	}

	// A group without an encoding (the FuzzReadState seed; host 48 is in
	// this topology) is a decode error, not a panic in the install that
	// follows, and the session goes on.
	s3 := testServer(t)
	forged := t.TempDir() + "/forged.state"
	if err := os.WriteFile(forged, append(s3.stateHeader(), 1, 1, '0', '0', 1, '0', 2, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp := s3.dispatch("load " + forged); !strings.Contains(resp, "err:") || s3.cl.Ctrl.NumGroups() != 0 {
		t.Fatalf("load of a group without an encoding: %q", resp)
	}
	if resp := s3.dispatch("load " + path); !strings.Contains(resp, "restored 1 groups") {
		t.Fatalf("load after a refused load: %q", resp)
	}
	// The stream's bitmap widths are the reader's topology's: a file
	// saved under another shape is refused by its first line.
	cl, err := elmo.NewCluster(elmo.TopologyConfig{Pods: 2, SpinesPerPod: 2, LeavesPerPod: 4, HostsPerLeaf: 8, CoresPerPlane: 2}, elmo.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	other := &server{cl: cl}
	if resp := other.dispatch("load " + path); !strings.Contains(resp, "err:") || !strings.Contains(resp, "topology") || cl.Ctrl.NumGroups() != 0 {
		t.Fatalf("load under another topology: %q", resp)
	}
}
