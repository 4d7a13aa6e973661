package incr

// The newline-delimited JSON wire protocol of cmd/vmnd. Each input line is
// one change-set: either a single change object or an array of them,
// applied atomically. Each output line is one Result. Nodes are referenced
// by topology name and addresses in dotted-quad form. Invariants and
// prefixes use the topology-file schema of internal/netdesc
// (netdesc.Invariant, ParsePrefix): the wire, the session journal and its
// snapshots share that one codec with description files.
//
//	{"op":"node_down","node":"fw1"}
//	[{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"},
//	 {"op":"relabel","node":"h0-0","class":"broken-0"}]
//	{"op":"inv_add","invariant":{"type":"simple_isolation","dst":"h1-0",
//	  "src_addr":"10.0.0.1","label":"iso g0->g1"}}
//
// Supported ops: node_down, node_up, relabel, box_remove, box_reconfig,
// fw_allow, fw_deny, fw_del (prepend/delete a firewall ACL entry and
// announce the reconfiguration), inv_add, inv_remove, noop.
//
// Transactional ops wrap a change-set in a request envelope:
//
//	{"op":"propose","id":"r1","changes":[{"op":"fw_del","node":"fw1",
//	  "src":"10.0.0.0/24","dst":"10.1.0.0/24"}]}
//	{"op":"commit","id":"r2"}
//	{"op":"rollback","id":"r3"}
//
// A propose verifies the change-set against shadow state and answers with
// a decision plus verified repair suggestions on new violations; commit
// promotes the shadow, rollback discards it bit-exactly. Propose bodies
// never mutate live state: firewall ops clone the targeted firewall and
// swap the edited clone in (only inside the shadow).
//
// An "apply_batch" envelope carries a change list to coalesce (see
// Coalesce) before one atomic apply; its result reports the raw and
// eliminated change counts as enqueued/coalesced.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/topo"
)

// WireChange is the JSON form of one change.
type WireChange struct {
	Op        string             `json:"op"`
	Node      string             `json:"node,omitempty"`
	Class     string             `json:"class,omitempty"`
	Src       string             `json:"src,omitempty"` // netdesc prefix syntax
	Dst       string             `json:"dst,omitempty"` // netdesc prefix syntax
	Invariant *netdesc.Invariant `json:"invariant,omitempty"`
	Name      string             `json:"name,omitempty"`
}

// WireRequest is the JSON envelope of one non-array vmnd input line: a
// plain change (promoted WireChange fields) or a transactional op
// ("propose" with Changes, "commit", "rollback") with an optional request
// id echoed in the response.
type WireRequest struct {
	WireChange
	Id      string       `json:"id,omitempty"`
	Changes []WireChange `json:"changes,omitempty"`
}

// WireReport is the JSON form of one core.Report.
type WireReport struct {
	Invariant  string   `json:"invariant"`
	Scenario   []string `json:"scenario,omitempty"` // failed node names
	Outcome    string   `json:"outcome"`
	Satisfied  bool     `json:"satisfied"`
	Engine     string   `json:"engine"`
	SliceHosts int      `json:"slice_hosts"`
	SliceBoxes int      `json:"slice_boxes"`
	Whole      bool     `json:"whole,omitempty"`
	Reused     bool     `json:"reused,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	// CanonShared marks verdicts inherited from a canonical-equivalence-
	// class representative (witness translated through the renamings).
	CanonShared bool `json:"canon_shared,omitempty"`
	// BudgetExceeded marks a check degraded by a budget (request
	// deadline, solver conflict cap): outcome "unknown", unsatisfied.
	BudgetExceeded bool  `json:"budget_exceeded,omitempty"`
	DurationNs     int64 `json:"duration_ns"`
}

// WireResult is the JSON form of one Apply outcome: the apply's stats
// (ApplyStats, promoted into the object) followed by the verdicts.
type WireResult struct {
	ApplyStats
	Unsatisfied int          `json:"unsatisfied"`
	Reports     []WireReport `json:"reports"`
	// Id echoes the request id, when one was given.
	Id string `json:"id,omitempty"`
	// Duplicate marks a replayed request id: the change-set was NOT
	// re-applied (it already was, possibly before a daemon restart) and
	// the reports are the session's current verdicts. At-least-once
	// clients treat this as the ack they missed.
	Duplicate bool `json:"duplicate,omitempty"`
}

// WireError is the JSON form of a rejected request. Op and Id echo the
// failing request when they could be parsed.
type WireError struct {
	Seq   int    `json:"seq"`
	Error string `json:"error"`
	Op    string `json:"op,omitempty"`
	Id    string `json:"id,omitempty"`
}

// WireRepair is one verified minimal-repair suggestion: drop these
// entries (0-based indices into the proposed change-set) and the proposal
// verifies green. Ops describes the dropped changes for humans.
type WireRepair struct {
	Drop []int    `json:"drop"`
	Ops  []string `json:"ops,omitempty"`
}

// WireProposeResult is the JSON form of one Propose outcome.
type WireProposeResult struct {
	Op             string `json:"op"` // always "propose"
	Id             string `json:"id,omitempty"`
	Decision       string `json:"decision"`
	NewViolations  int    `json:"new_violations"`
	BudgetExceeded int    `json:"budget_exceeded,omitempty"`
	// RefinedClean counts groups the prefix/rule-level dependency index
	// kept clean on the shadow run (mirrors the Apply-path refined_clean,
	// so guardrail users see refinement effectiveness on rejected
	// change-sets too).
	RefinedClean int          `json:"refined_clean,omitempty"`
	Repairs      []WireRepair `json:"repairs,omitempty"`
	// RepairTruncated marks a repair search cut off by the deadline or
	// candidate cap before exhausting its subset size class.
	RepairTruncated bool `json:"repair_truncated,omitempty"`
	// Result is the full shadow verification result — the verdicts the
	// network would have after Commit.
	Result WireResult `json:"result"`
}

// WireTxAck is the JSON form of a commit/rollback (or inject_panic)
// acknowledgement.
type WireTxAck struct {
	Op          string `json:"op"`
	Id          string `json:"id,omitempty"`
	Seq         int    `json:"seq"`
	Committed   bool   `json:"committed,omitempty"`
	RolledBack  bool   `json:"rolled_back,omitempty"`
	Unsatisfied int    `json:"unsatisfied,omitempty"`
	// Duplicate marks a replayed commit id (see WireResult.Duplicate):
	// the transaction already committed, nothing was re-installed.
	Duplicate bool `json:"duplicate,omitempty"`
	// Totals snapshots the session-lifetime counters after a commit — the
	// state the installed shadow run left them in (absent on rollback and
	// inject_panic acks).
	Totals *Totals `json:"totals,omitempty"`
}

// WireStats is the response to the "stats" introspection op: lifetime
// totals, canonicalization counters, aggregate solver work, and a flat
// snapshot of the metrics registry (absent when the daemon runs without
// observability).
type WireStats struct {
	Op     string `json:"op"` // always "stats"
	Id     string `json:"id,omitempty"`
	Seq    int    `json:"seq"`
	Totals Totals `json:"totals"`
	// Canonicalization counters (core.Verifier.CanonStats).
	CanonClasses       int64              `json:"canon_classes"`
	CanonSharedChecks  int64              `json:"canon_shared_checks"`
	CanonEncTranslated int64              `json:"canon_enc_translated"`
	Solver             sat.Stats          `json:"solver"`
	Metrics            map[string]float64 `json:"metrics,omitempty"`
	// RecoveredGroups / ReverifiedOnRecovery carry the warm-restart
	// accounting when the daemon recovered from a state directory:
	// symmetry groups served entirely from the restored verdict store,
	// and restored verdicts re-checked against fresh solves before the
	// store was trusted. Absent (zero) without persistence.
	RecoveredGroups      int `json:"recovered_groups,omitempty"`
	ReverifiedOnRecovery int `json:"reverified_on_recovery,omitempty"`
}

// WirePersistStatus is the response to the "persist_status" op: the
// durability layer's live accounting plus what startup recovery did.
type WirePersistStatus struct {
	Op  string `json:"op"` // always "persist_status"
	Id  string `json:"id,omitempty"`
	Seq int    `json:"seq"`
	// Enabled reports the daemon runs with a state directory.
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   string `json:"fsync,omitempty"`
	// SnapshotSeq is the apply sequence the on-disk snapshot covers;
	// JournalRecords/JournalBytes size the journal suffix on top of it.
	SnapshotSeq    int   `json:"snapshot_seq,omitempty"`
	JournalRecords int   `json:"journal_records,omitempty"`
	JournalBytes   int64 `json:"journal_bytes,omitempty"`
	AppliedIds     int   `json:"applied_ids,omitempty"`
	// Degraded, when non-empty, means journaling is off (an
	// unpersistable change or an I/O failure) and the next restart will
	// cold start.
	Degraded string `json:"degraded,omitempty"`
	// Recovery outcome of THIS process's startup.
	Recovered            bool   `json:"recovered,omitempty"`
	ColdStart            bool   `json:"cold_start,omitempty"`
	Reason               string `json:"reason,omitempty"`
	RecoveredGroups      int    `json:"recovered_groups,omitempty"`
	ReverifiedOnRecovery int    `json:"reverified_on_recovery,omitempty"`
}

// EncodePersistStatus renders the durability status on the wire.
func EncodePersistStatus(id string, ps PersistStatus) WirePersistStatus {
	fsync := ""
	if ps.Enabled {
		fsync = ps.Sync.String()
	}
	return WirePersistStatus{
		Op:                   "persist_status",
		Id:                   id,
		Seq:                  ps.Seq,
		Enabled:              ps.Enabled,
		Dir:                  ps.Dir,
		Fsync:                fsync,
		SnapshotSeq:          ps.SnapshotSeq,
		JournalRecords:       ps.JournalRecords,
		JournalBytes:         ps.JournalBytes,
		AppliedIds:           ps.AppliedIDs,
		Degraded:             ps.Degraded,
		Recovered:            ps.Recovery.Recovered,
		ColdStart:            ps.Recovery.ColdStart,
		Reason:               ps.Recovery.Reason,
		RecoveredGroups:      ps.Recovery.RecoveredGroups,
		ReverifiedOnRecovery: ps.Recovery.ReverifiedOnRecovery,
	}
}

// WireTrace is the response to the "trace" op: the tracer's buffered
// spans, drained (a second trace request returns only spans recorded
// since). Empty when tracing is disabled.
type WireTrace struct {
	Op    string           `json:"op"` // always "trace"
	Id    string           `json:"id,omitempty"`
	Seq   int              `json:"seq"`
	Spans []obs.SpanRecord `json:"spans"`
}

// WireCheckOrigin is the JSON form of one verdict's provenance.
type WireCheckOrigin struct {
	Scenario   int    `json:"scenario"`
	Source     string `json:"source"`
	DurationNs int64  `json:"duration_ns"`
	Conflicts  int64  `json:"conflicts,omitempty"`
}

// WireExplainGroup is the JSON form of one re-verified group's provenance.
type WireExplainGroup struct {
	Group      string   `json:"group"`
	Invariants []string `json:"invariants"`
	Reason     string   `json:"reason"`
	// Node and Atom name the dirtying element and witness read address
	// (present for the node/fib/box channels resp. refined FIB dirtying).
	Node string `json:"node,omitempty"`
	Atom string `json:"atom,omitempty"`
	// ChangeIndex is the dirtying change's position in the request's
	// change-set (-1 when the cause is not attributable to one change).
	ChangeIndex int               `json:"change_index"`
	Change      string            `json:"change,omitempty"`
	Checks      []WireCheckOrigin `json:"checks"`
}

// WireExplain is the response to the "explain" op: provenance for every
// group the most recent Apply (or the pending Propose's shadow) had to
// re-verify. An optional "name" filter restricts it to one group key.
type WireExplain struct {
	Op     string             `json:"op"` // always "explain"
	Id     string             `json:"id,omitempty"`
	Seq    int                `json:"seq"`
	Groups []WireExplainGroup `json:"groups"`
}

// EncodeExplain renders provenance records on the wire.
func EncodeExplain(t *topo.Topology, id string, seq int, recs []ExplainRecord) WireExplain {
	out := WireExplain{Op: "explain", Id: id, Seq: seq}
	for _, rec := range recs {
		g := WireExplainGroup{
			Group:       rec.GroupKey,
			Invariants:  rec.Members,
			Reason:      rec.Cause.Reason,
			ChangeIndex: rec.Cause.Change,
			Change:      rec.Cause.ChangeDesc,
		}
		if rec.Cause.HasNode && rec.Cause.Node >= 0 && int(rec.Cause.Node) < t.NumNodes() {
			g.Node = t.Node(rec.Cause.Node).Name
		}
		if rec.Cause.HasAtom {
			g.Atom = rec.Cause.Atom.String()
		}
		for _, c := range rec.Checks {
			g.Checks = append(g.Checks, WireCheckOrigin{
				Scenario: c.Scenario, Source: c.Source,
				DurationNs: c.DurationNs, Conflicts: c.Conflicts,
			})
		}
		out.Groups = append(out.Groups, g)
	}
	return out
}

func nodeByName(t *topo.Topology, name string) (topo.NodeID, error) {
	n, ok := t.ByName(name)
	if !ok {
		return topo.NodeNone, fmt.Errorf("incr: no node named %q", name)
	}
	return n.ID, nil
}

// resolveInvariant decodes a schema invariant against the topology
// (netdesc.ResolveInvariant). A malformed address or prefix is reported
// as its parse error, any other rejection under this package's prefix.
func resolveInvariant(t *topo.Topology, w *netdesc.Invariant) (inv.Invariant, error) {
	i, err := netdesc.ResolveInvariant(w, t.ByName)
	if err != nil {
		if cause := errors.Unwrap(err); cause != nil {
			return nil, cause
		}
		return nil, fmt.Errorf("incr: %s", err.(*netdesc.Error).Msg)
	}
	return i, nil
}

// firewallEdit is a validated fw_allow, fw_deny or fw_del: the learning
// firewall modelled at node and the ACL entry the op prepends or deletes.
type firewallEdit struct {
	node     topo.NodeID
	fw       *mbox.LearningFirewall
	op       string
	src, dst pkt.Prefix
}

// apply returns acl with the edit applied: fw_allow and fw_deny prepend
// their entry, fw_del drops every entry with these prefixes (filtering
// acl in place).
func (e *firewallEdit) apply(acl []mbox.ACLEntry) []mbox.ACLEntry {
	switch e.op {
	case "fw_allow":
		return append([]mbox.ACLEntry{mbox.AllowEntry(e.src, e.dst)}, acl...)
	case "fw_deny":
		return append([]mbox.ACLEntry{mbox.DenyEntry(e.src, e.dst)}, acl...)
	}
	kept := acl[:0]
	for _, x := range acl {
		if x.Src != e.src || x.Dst != e.dst {
			kept = append(kept, x)
		}
	}
	return kept
}

// decodeFirewallEdit resolves a firewall op against the network.
func decodeFirewallEdit(net *core.Network, w WireChange) (*firewallEdit, error) {
	n, err := nodeByName(net.Topo, w.Node)
	if err != nil {
		return nil, err
	}
	e := &firewallEdit{node: n, op: w.Op}
	for _, b := range net.Boxes {
		if b.Node == n {
			var ok bool
			if e.fw, ok = b.Model.(*mbox.LearningFirewall); !ok {
				return nil, fmt.Errorf("incr: node %q is not a learning firewall", w.Node)
			}
			break
		}
	}
	if e.fw == nil {
		return nil, fmt.Errorf("incr: no middlebox model at %q", w.Node)
	}
	if e.src, err = netdesc.ParsePrefix(w.Src); err != nil {
		return nil, err
	}
	if e.dst, err = netdesc.ParsePrefix(w.Dst); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeChange validates one wire change without touching network
// state. A firewall op also returns its ACL edit, which the caller
// applies to the live firewall (DecodeChanges) or to a clone
// (DecodeProposeSet).
func decodeChange(net *core.Network, w WireChange) (Change, *firewallEdit, error) {
	t := net.Topo
	switch w.Op {
	case "node_down", "node_up", "relabel", "box_remove", "box_reconfig":
		n, err := nodeByName(t, w.Node)
		if err != nil {
			return Change{}, nil, err
		}
		switch w.Op {
		case "node_down":
			return NodeDown(n), nil, nil
		case "node_up":
			return NodeUp(n), nil, nil
		case "relabel":
			return Relabel(n, w.Class), nil, nil
		case "box_remove":
			return BoxRemove(n), nil, nil
		}
		return BoxReconfig(n), nil, nil
	case "fw_allow", "fw_deny", "fw_del":
		e, err := decodeFirewallEdit(net, w)
		if err != nil {
			return Change{}, nil, err
		}
		return BoxReconfig(e.node), e, nil
	case "inv_add":
		if w.Invariant == nil {
			return Change{}, nil, fmt.Errorf("incr: inv_add needs an invariant")
		}
		i, err := resolveInvariant(t, w.Invariant)
		if err != nil {
			return Change{}, nil, err
		}
		return AddInvariant(i), nil, nil
	case "inv_remove":
		return RemoveInvariant(w.Name), nil, nil
	default:
		return Change{}, nil, fmt.Errorf("incr: unknown op %q", w.Op)
	}
}

// DecodeChangeSet parses one wire line — a single change object or an
// array — into a change-set. The "noop" op yields an empty set (a cheap
// report refresh). The whole line validates before any in-place mutation
// runs: a decode error on the third change leaves the network untouched
// by the first two, preserving the documented apply-atomically semantics.
func DecodeChangeSet(net *core.Network, line []byte) ([]Change, error) {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return nil, nil
	}
	var wires []WireChange
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(line, &wires); err != nil {
			return nil, fmt.Errorf("incr: malformed change-set: %w", err)
		}
	} else {
		var w WireChange
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("incr: malformed change: %w", err)
		}
		wires = []WireChange{w}
	}
	return DecodeChanges(net, wires)
}

// DecodeChanges resolves a list of wire changes with the same atomicity
// contract as DecodeChangeSet: every change validates before any
// firewall edit runs, so a decode error leaves the network untouched.
// Firewall ops edit the targeted LearningFirewall in place and announce
// it as a BoxReconfig, per the Session change protocol. The apply_batch
// envelope decodes through here.
func DecodeChanges(net *core.Network, wires []WireChange) ([]Change, error) {
	var out []Change
	var edits []*firewallEdit
	for _, w := range wires {
		if w.Op == "noop" || w.Op == "" {
			continue
		}
		ch, edit, err := decodeChange(net, w)
		if err != nil {
			return nil, err
		}
		if edit != nil {
			edits = append(edits, edit)
		}
		out = append(out, ch)
	}
	for _, e := range edits {
		e.fw.ACL = e.apply(e.fw.ACL)
	}
	return out, nil
}

// DecodeProposeSet resolves a proposed change-set without touching live
// state: where DecodeChanges edits the targeted LearningFirewall in
// place, the propose path edits a clone and emits a model swap — the
// live model stays untouched until Commit installs the shadow. Successive
// firewall ops on the same node chain their clones, so they compose
// exactly as the in-place path would. In-place box_reconfig (no
// replacement model) cannot be shadowed and is rejected with
// ErrImpureChange.
func DecodeProposeSet(net *core.Network, wires []WireChange) ([]Change, error) {
	var out []Change
	clones := map[topo.NodeID]*mbox.LearningFirewall{}
	for _, w := range wires {
		if w.Op == "noop" || w.Op == "" {
			continue
		}
		if w.Op == "box_reconfig" {
			return nil, ErrImpureChange
		}
		ch, edit, err := decodeChange(net, w)
		if err != nil {
			return nil, err
		}
		if edit != nil {
			base := clones[edit.node]
			if base == nil {
				base = edit.fw
			}
			fw := &mbox.LearningFirewall{
				InstanceName: base.InstanceName,
				ACL:          edit.apply(append([]mbox.ACLEntry(nil), base.ACL...)),
				DefaultAllow: base.DefaultAllow,
			}
			clones[edit.node] = fw
			ch = BoxSwap(edit.node, fw)
		}
		out = append(out, ch)
	}
	return out, nil
}

// ParseRequest parses one wire line into its request envelope. Array
// lines (plain change-set batches) and blank lines return envelope=false
// and a zero request — decode those with DecodeChangeSet. ParseRequest
// validates JSON shape only; it never resolves names or mutates network
// state, so it is safe on untrusted input (the daemon and the decode fuzz
// target share it).
func ParseRequest(line []byte) (req WireRequest, envelope bool, err error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] == '[' {
		return WireRequest{}, false, nil
	}
	if err := json.Unmarshal(trimmed, &req); err != nil {
		return WireRequest{}, false, fmt.Errorf("incr: malformed request: %w", err)
	}
	return req, true, nil
}

// describeChange renders one change for repair suggestions.
func describeChange(t *topo.Topology, ch Change) string {
	switch ch.Kind {
	case KindInvAdd:
		if ch.Invariant != nil {
			return "inv-add " + ch.Invariant.Name()
		}
		return "inv-add"
	case KindInvRemove:
		return "inv-remove " + ch.Name
	case KindFIB:
		return "fib"
	}
	name := ""
	if ch.Node >= 0 && int(ch.Node) < t.NumNodes() {
		name = " " + t.Node(ch.Node).Name
	}
	return ch.Kind.String() + name
}

// EncodeProposeResult renders a Propose outcome on the wire; changes is
// the decoded change-set (for describing repair drops).
func EncodeProposeResult(t *topo.Topology, id string, changes []Change, pr *ProposeResult) WireProposeResult {
	out := WireProposeResult{
		Op:              "propose",
		Id:              id,
		Decision:        pr.Decision.String(),
		NewViolations:   pr.NewViolations,
		BudgetExceeded:  pr.Stats.BudgetExceeded,
		RefinedClean:    pr.Stats.RefinedClean,
		RepairTruncated: pr.RepairTruncated,
		Result:          EncodeResult(t, pr.Stats, pr.Reports),
	}
	for _, rp := range pr.Repairs {
		wr := WireRepair{Drop: append([]int(nil), rp.Drop...)}
		for _, i := range rp.Drop {
			if i >= 0 && i < len(changes) {
				wr.Ops = append(wr.Ops, describeChange(t, changes[i]))
			}
		}
		out.Repairs = append(out.Repairs, wr)
	}
	return out
}

// EncodeResult renders an Apply outcome on the wire.
func EncodeResult(t *topo.Topology, stats ApplyStats, reports []core.Report) WireResult {
	res := WireResult{ApplyStats: stats}
	if len(reports) > 0 { // an empty set stays null on the wire
		res.Reports = make([]WireReport, 0, len(reports))
	}
	for _, r := range reports {
		wr := WireReport{
			Invariant:      r.Invariant.Name(),
			Outcome:        r.Result.Outcome.String(),
			Satisfied:      r.Satisfied,
			Engine:         r.Engine,
			SliceHosts:     r.SliceHosts,
			SliceBoxes:     r.SliceBoxes,
			Whole:          r.Whole,
			Reused:         r.Reused,
			Cached:         r.Cached,
			CanonShared:    r.CanonShared,
			BudgetExceeded: r.BudgetExceeded,
			DurationNs:     r.Duration.Nanoseconds(),
		}
		for _, n := range r.Scenario.Nodes() {
			wr.Scenario = append(wr.Scenario, t.Node(n).Name)
		}
		if !r.Satisfied {
			res.Unsatisfied++
		}
		res.Reports = append(res.Reports, wr)
	}
	return res
}
