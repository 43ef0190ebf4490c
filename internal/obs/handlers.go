package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"elmo/internal/controller"
	"elmo/internal/telemetry"
)

// JSON introspection endpoints. Mount attaches them to a telemetry
// Server:
//
//	/debug/elmo/groups      group summaries + heavy-hitter estimates
//	/debug/elmo/group/{vni}/{group}  one group in full
//	/debug/elmo/links       top-N loaded links (windowed rates)
//	/debug/elmo/controller  group count, update counters + durable/lease state
//	/debug/elmo/slo         SLO objectives and burn rules
//	/healthz                200 while no page-severity burn fires
//	/readyz                 200 while leader valid + replication current
//
// Every response is a consistent snapshot: the controller views are
// taken under the controller's read lock, so concurrent
// InstallBatch/churn never produce torn reads.

// Mount registers all ops-plane endpoints on srv.
func (p *Plane) Mount(srv *telemetry.Server) {
	srv.Handle("/debug/elmo/groups", http.HandlerFunc(p.handleGroups))
	srv.Handle("/debug/elmo/group/", http.HandlerFunc(p.handleGroup))
	srv.Handle("/debug/elmo/links", http.HandlerFunc(p.handleLinks))
	srv.Handle("/debug/elmo/controller", http.HandlerFunc(p.handleController))
	srv.Handle("/debug/elmo/slo", http.HandlerFunc(p.handleSLO))
	srv.Handle("/healthz", http.HandlerFunc(p.handleHealthz))
	srv.Handle("/readyz", http.HandlerFunc(p.handleReadyz))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func intParam(r *http.Request, name string, def int) int {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// GroupsResponse is the /debug/elmo/groups payload.
type GroupsResponse struct {
	TotalGroups  int                       `json:"total_groups"`
	Groups       []controller.GroupSummary `json:"groups"`
	HeavyHitters []HeavyHitter             `json:"heavy_hitters"`
	SketchTotal  int64                     `json:"sketch_total_packets"`
}

func (p *Plane) handleGroups(w http.ResponseWriter, r *http.Request) {
	if p.opts.Controller == nil {
		http.Error(w, "no controller attached", http.StatusNotImplemented)
		return
	}
	limit := intParam(r, "limit", 100)
	groups, total := p.opts.Controller.InspectGroups(limit)
	writeJSON(w, GroupsResponse{
		TotalGroups:  total,
		Groups:       groups,
		HeavyHitters: p.groups.Top(intParam(r, "top", 10)),
		SketchTotal:  p.groups.Total(),
	})
}

func (p *Plane) handleGroup(w http.ResponseWriter, r *http.Request) {
	if p.opts.Controller == nil {
		http.Error(w, "no controller attached", http.StatusNotImplemented)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/elmo/group/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 {
		http.Error(w, "want /debug/elmo/group/{vni}/{group}", http.StatusBadRequest)
		return
	}
	vni, err1 := strconv.ParseUint(parts[0], 10, 32)
	gid, err2 := strconv.ParseUint(parts[1], 10, 32)
	if err1 != nil || err2 != nil {
		http.Error(w, "vni and group must be unsigned integers", http.StatusBadRequest)
		return
	}
	key := controller.GroupKey{Tenant: uint32(vni), Group: uint32(gid)}
	detail, ok := p.opts.Controller.InspectGroup(key)
	if !ok {
		http.Error(w, "group not found", http.StatusNotFound)
		return
	}
	writeJSON(w, detail)
}

// LinksResponse is the /debug/elmo/links payload.
type LinksResponse struct {
	NumLinks int        `json:"num_links"`
	Top      []LinkRate `json:"top"`
}

func (p *Plane) handleLinks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, LinksResponse{
		NumLinks: p.links.NumLinks(),
		Top:      p.links.TopN(intParam(r, "n", 20), intParam(r, "buckets", 0)),
	})
}

// DurableInfo is the durable-controller section of the controller
// endpoint.
type DurableInfo struct {
	Epoch       uint64 `json:"epoch"`
	WALLSN      uint64 `json:"wal_lsn"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// SnapshotLag is the WAL records a cold restart must replay.
	SnapshotLag uint64 `json:"snapshot_lag_records"`
	LeaseMisses int    `json:"lease_misses"`
	Leader      bool   `json:"leader"`
	LeaderErr   string `json:"leader_err,omitempty"`
	// ReplicationLag counts followers not current with the leader's
	// record stream (total - acked).
	ReplicationLag int    `json:"replication_lag_followers"`
	ReplicationErr string `json:"replication_err,omitempty"`
	FollowersAcked int    `json:"followers_acked"`
	FollowersTotal int    `json:"followers_total"`
}

// ControllerResponse is the /debug/elmo/controller payload.
type ControllerResponse struct {
	controller.ControllerInfo
	Durable *DurableInfo `json:"durable,omitempty"`
}

func (p *Plane) handleController(w http.ResponseWriter, r *http.Request) {
	if p.opts.Controller == nil {
		http.Error(w, "no controller attached", http.StatusNotImplemented)
		return
	}
	resp := ControllerResponse{ControllerInfo: p.opts.Controller.InspectController()}
	if d := p.opts.Durable; d != nil {
		di := &DurableInfo{
			Epoch:       d.Epoch(),
			WALLSN:      d.LastLSN(),
			SnapshotLSN: d.SnapshotLSN(),
			LeaseMisses: d.LeaseMisses(),
			Leader:      d.NotLeaderErr() == nil,
		}
		di.SnapshotLag = di.WALLSN - di.SnapshotLSN
		if err := d.NotLeaderErr(); err != nil {
			di.LeaderErr = err.Error()
		}
		if err := d.ReplicationErr(); err != nil {
			di.ReplicationErr = err.Error()
		}
		if p.opts.FollowerAcks != nil {
			di.FollowersAcked, di.FollowersTotal = p.opts.FollowerAcks()
			di.ReplicationLag = di.FollowersTotal - di.FollowersAcked
		}
		resp.Durable = di
	}
	writeJSON(w, resp)
}

func (p *Plane) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, p.Status())
}

func (p *Plane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := p.Status()
	if !st.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, struct {
		Healthy bool        `json:"healthy"`
		Firing  []RuleState `json:"firing,omitempty"`
	}{st.Healthy, firingRules(st)})
}

func firingRules(st SLOStatus) []RuleState {
	var out []RuleState
	for _, r := range st.Rules {
		if r.Firing {
			out = append(out, r)
		}
	}
	return out
}

func (p *Plane) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ok, reasons := p.Ready()
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons,omitempty"`
	}{ok, reasons})
}
