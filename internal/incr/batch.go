package incr

// Change-set batching and coalescing. A batch of N updates often nets
// out to much less work than N applies: repeated updates to the same
// table collapse to one old-vs-final diff, an add followed by a delete
// of the same rule annihilates (the final table equals the old one, so
// nothing is dirtied), and repeated liveness/relabel toggles of one
// element keep only the last writer. Coalescing is sound because Apply
// verifies the network's FINAL state: any two change lists that mutate
// the session to the same final state produce bit-identical verdicts
// and witnesses (Apply ≡ VerifyAll over the final network either way);
// coalescing only ever drops changes whose effect the surviving changes
// subsume, so dirtying stays a superset of what the final diff needs.
//
// The rules, per kind:
//
//   - NodeDown/NodeUp: last writer wins per node. Apply's toggle check
//     makes an annihilated pair (down then up of an up node) a no-op.
//   - FIB: all updates collapse to one — the last non-nil provider IS
//     the final forwarding state (providers are whole-FIB functions),
//     and the announced owner lists union. Diffing is per-table against
//     the final provider, so cross-table updates in one batch still
//     dirty each table independently — coalescing never merges diffs
//     across tables, it only removes superseded providers.
//   - BoxReconfig: one announcement per node suffices — the last
//     swapped-in model wins; in-place announcements (nil model) are
//     idempotent. Skipped entirely (conservative pass-through, original
//     order) when the batch also adds or removes boxes, where ordering
//     against the reconfig is semantic.
//   - Relabel: last writer wins per node.
//   - BoxAdd/BoxRemove/InvAdd/InvRemove: never coalesced — their
//     validation and name-matching semantics are order-sensitive.
//
// Survivors keep their relative order (by the index of the retained
// occurrence), so order-sensitive kinds interleave exactly as given.

import (
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/topo"
)

// Coalesce reduces a change list to an equivalent one (same final
// session state, hence identical verdicts), returning the survivors and
// how many changes were eliminated.
func Coalesce(changes []Change) ([]Change, int) {
	if len(changes) < 2 {
		return changes, 0
	}
	keep := make([]bool, len(changes))
	for i := range keep {
		keep[i] = true
	}

	// Last writer wins per node for liveness and relabels.
	lastLive := map[topo.NodeID]int{}
	lastRelab := map[topo.NodeID]int{}
	boxOps := false
	for i, ch := range changes {
		switch ch.Kind {
		case KindNodeDown, KindNodeUp:
			if j, ok := lastLive[ch.Node]; ok {
				keep[j] = false
			}
			lastLive[ch.Node] = i
		case KindRelabel:
			if j, ok := lastRelab[ch.Node]; ok {
				keep[j] = false
			}
			lastRelab[ch.Node] = i
		case KindBoxAdd, KindBoxRemove:
			boxOps = true
		}
	}

	// All FIB updates collapse into the last one, carrying the union of
	// announced owners and the last non-nil provider.
	lastFIB, nFIB := -1, 0
	var mergedFIB Change
	mergedFIB.Kind = KindFIB
	fibNodeSeen := map[topo.NodeID]bool{}
	for i, ch := range changes {
		if ch.Kind != KindFIB {
			continue
		}
		nFIB++
		if lastFIB >= 0 {
			keep[lastFIB] = false
		}
		if ch.FIBFor != nil {
			mergedFIB.FIBFor = ch.FIBFor
		}
		for _, n := range ch.Nodes {
			if !fibNodeSeen[n] {
				fibNodeSeen[n] = true
				mergedFIB.Nodes = append(mergedFIB.Nodes, n)
			}
		}
		lastFIB = i
	}

	// One reconfig announcement per box node (unless box membership is
	// changing in the same batch, where ordering is semantic).
	lastReconf := map[topo.NodeID]int{}
	reconfMerged := map[topo.NodeID]Change{}
	if !boxOps {
		for i, ch := range changes {
			if ch.Kind != KindBoxReconfig {
				continue
			}
			if j, ok := lastReconf[ch.Node]; ok {
				keep[j] = false
			}
			lastReconf[ch.Node] = i
			m, ok := reconfMerged[ch.Node]
			if !ok {
				m = Change{Kind: KindBoxReconfig, Node: ch.Node}
			}
			if ch.Model != nil {
				m.Model = ch.Model
			}
			reconfMerged[ch.Node] = m
		}
	}

	out := make([]Change, 0, len(changes))
	for i, ch := range changes {
		if !keep[i] {
			continue
		}
		switch {
		case ch.Kind == KindFIB && nFIB > 1:
			out = append(out, mergedFIB)
		case ch.Kind == KindBoxReconfig && !boxOps:
			out = append(out, reconfMerged[ch.Node])
		default:
			out = append(out, ch)
		}
	}
	return out, len(changes) - len(out)
}

// ApplyBatch coalesces a batch of changes and applies the survivors as
// one atomic change-set. Verdicts and witnesses at the batch boundary
// are bit-identical to applying the batch one change at a time (both
// equal a from-scratch VerifyAll over the final network); what batching
// buys is one dirty-resolution and one re-verification for the whole
// batch instead of per change. The returned stats (LastApply) carry the
// raw and eliminated change counts.
func (s *Session) ApplyBatch(changes []Change) ([]core.Report, error) {
	reports, _, err := s.ApplyBatchID("", changes)
	return reports, err
}

// ApplyBatchID is ApplyBatch with a client request id (see ApplyID):
// duplicates are not re-applied, and with persistence enabled the
// COALESCED change-set is journaled before the call returns (the
// survivors are what mutated the network, and replaying them is
// verdict-identical to replaying the raw batch).
func (s *Session) ApplyBatchID(id string, changes []Change) (_ []core.Report, duplicate bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	if s.pending != nil {
		return nil, false, ErrProposePending
	}
	if id != "" {
		if _, ok := s.appliedIDs[id]; ok {
			return s.assemble(s.effectiveScenarios()), true, nil
		}
	}
	s.armDeadline()
	reports, co, err := s.applyLocked(changes, true)
	if err != nil {
		return nil, false, err
	}
	s.persistApply(id, co)
	return reports, false, nil
}
