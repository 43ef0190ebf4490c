package elmo

import (
	"errors"
	"testing"

	"elmo/internal/dataplane"
)

func TestClusterQuickPath(t *testing.T) {
	cl, err := NewCluster(PaperExampleTopology(), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 1, Group: 1}
	members := map[HostID]Role{0: RoleBoth, 1: RoleReceiver, 40: RoleBoth, 63: RoleReceiver}
	if err := cl.CreateGroup(key, members); err != nil {
		t.Fatal(err)
	}
	d, err := cl.Send(0, key, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 3 || d.Lost != 0 || d.Duplicates != 0 {
		t.Fatalf("delivery = %s", d)
	}
	if err := cl.Join(key, 8, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	d, err = cl.Send(0, key, []byte("hi2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 4 {
		t.Fatalf("after join: %s", d)
	}
	if err := cl.Leave(key, 8, RoleReceiver); err != nil {
		t.Fatal(err)
	}
	d, err = cl.Send(0, key, []byte("hi3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 3 {
		t.Fatalf("after leave: %s", d)
	}
	if got := len(cl.GroupKeys()); got != 1 {
		t.Fatalf("group keys = %d", got)
	}
	if err := cl.RemoveGroup(key); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.GroupKeys()); got != 0 {
		t.Fatalf("group keys after remove = %d", got)
	}
}

func TestClusterFailureAPI(t *testing.T) {
	cl, err := NewCluster(PaperExampleTopology(), DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 2, Group: 7}
	if err := cl.CreateGroup(key, map[HostID]Role{0: RoleBoth, 40: RoleBoth}); err != nil {
		t.Fatal(err)
	}
	n, err := cl.FailSpine(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("impacted = %d", n)
	}
	d, err := cl.Send(0, key, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 1 || d.Lost != 0 {
		t.Fatalf("under failure: %s", d)
	}
	if _, err := cl.RepairSpine(0); err != nil {
		t.Fatal(err)
	}
	d, err = cl.Send(40, key, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 1 {
		t.Fatalf("after repair: %s", d)
	}
	if _, err := cl.FailCore(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RepairCore(0); err != nil {
		t.Fatal(err)
	}
}

// TestSenderWithoutPathDegradesToUnicast: a sender cut off from the
// fabric loses the flow an earlier install left, so its hypervisor
// reports ErrNoSenderFlow (the §3.3 unicast fallback signal) instead of
// encapsulating onto a dead path; repair plus refresh restores it.
func TestSenderWithoutPathDegradesToUnicast(t *testing.T) {
	cl, err := NewCluster(PaperExampleTopology(), DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 3, Group: 1}
	if err := cl.CreateGroup(key, map[HostID]Role{0: RoleSender, 16: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// Both spines of the sender's pod.
	for s := SpineID(0); s < 2; s++ {
		if _, err := cl.FailSpine(s); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := cl.Send(0, key, []byte("x")); !errors.Is(err, dataplane.ErrNoSenderFlow) {
		t.Fatalf("send without a path: delivery %v, err %v; want ErrNoSenderFlow", d, err)
	}
	if _, err := cl.RepairSpine(1); err != nil {
		t.Fatal(err)
	}
	d, err := cl.Send(0, key, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 1 || d.Lost != 0 {
		t.Fatalf("after repair: %s", d)
	}
}

func TestNewClusterRejectsBadConfigs(t *testing.T) {
	if _, err := NewCluster(TopologyConfig{}, DefaultConfig(0)); err == nil {
		t.Fatal("bad topology accepted")
	}
	bad := DefaultConfig(0)
	bad.MaxHeaderBytes = 0
	if _, err := NewCluster(PaperExampleTopology(), bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestClusterJoinLeaveErrorPaths(t *testing.T) {
	cl, err := NewCluster(PaperExampleTopology(), DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	key := GroupKey{Tenant: 4, Group: 4}
	// Operations on a missing group fail cleanly.
	if err := cl.Join(key, 1, RoleReceiver); err == nil {
		t.Fatal("join on missing group accepted")
	}
	if err := cl.RemoveGroup(key); err == nil {
		t.Fatal("remove on missing group accepted")
	}
	if _, err := cl.Send(0, key, nil); err == nil {
		t.Fatal("send on missing group accepted")
	}
	if err := cl.CreateGroup(key, map[HostID]Role{0: RoleBoth, 40: RoleReceiver}); err != nil {
		t.Fatal(err)
	}
	// Leave of a non-member fails and leaves the group functional.
	if err := cl.Leave(key, 17, RoleReceiver); err == nil {
		t.Fatal("leave of non-member accepted")
	}
	d, err := cl.Send(0, key, []byte("still works"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Received) != 1 {
		t.Fatalf("delivery = %s", d)
	}
}

func TestClusterManyGroupsSurviveFailureCycle(t *testing.T) {
	cl, err := NewCluster(PaperExampleTopology(), DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	// A handful of groups with varied spans.
	specs := [][]HostID{
		{0, 1, 2},       // rack-local
		{0, 9, 17},      // two pods
		{5, 40, 56, 63}, // three pods
		{8, 24, 40, 57}, // four pods
	}
	for i, hosts := range specs {
		members := make(map[HostID]Role, len(hosts))
		for _, h := range hosts {
			members[h] = RoleBoth
		}
		if err := cl.CreateGroup(GroupKey{Tenant: 9, Group: uint32(i + 1)}, members); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		for i, hosts := range specs {
			d, err := cl.Send(hosts[0], GroupKey{Tenant: 9, Group: uint32(i + 1)}, []byte(stage))
			if err != nil {
				t.Fatalf("%s group %d: %v", stage, i+1, err)
			}
			if len(d.Received) != len(hosts)-1 || d.Lost != 0 {
				t.Fatalf("%s group %d: %s", stage, i+1, d)
			}
		}
	}
	check("healthy")
	if _, err := cl.FailSpine(2); err != nil { // pod 1 plane 0
		t.Fatal(err)
	}
	if _, err := cl.FailCore(1); err != nil {
		t.Fatal(err)
	}
	check("two failures")
	if _, err := cl.RepairSpine(2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RepairCore(1); err != nil {
		t.Fatal(err)
	}
	check("repaired")
}
