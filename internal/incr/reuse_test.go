package incr_test

// Tests for compiled-state reuse across Applies: the per-scenario
// transfer engines and the symmetry grouping survive changes that cannot
// alter them, are rebuilt by the changes that can, never leak out of a
// Propose, and are dropped by a failed Apply. Every step is also checked
// against a from-scratch VerifyAll.

import (
	"testing"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// dcOpts are the core options newDCTarget builds its session with.
var dcOpts = core.Options{Engine: core.EngineSAT}

// sameEngines reports whether a and b hold the same engine pointers.
func sameEngines(a, b []*tf.Engine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameGroups reports whether a and b are the same grouping slice (not
// merely an equal one).
func sameGroups(a, b []symmetry.Group) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// spanCounts drains the tracer and counts the recorded spans by name.
func spanCounts(o *obs.Obs) map[string]int {
	n := map[string]int{}
	for _, sp := range o.Trace.Drain() {
		n[sp.Name]++
	}
	return n
}

// TestApplyReusesCompiledState drives one change of every relevant kind
// and checks that only liveness/FIB changes recompile the engines (and
// emit a tf-compile span) and only relabels and invariant edits regroup
// (and emit a regroup span). Firewall edits, box swaps and empty
// refreshes keep the very same engine pointers and groups.
func TestApplyReusesCompiledState(t *testing.T) {
	o := obs.New(4096)
	a := newDCTarget(t, false, incr.Options{Obs: o})
	s := a.session()
	spanCounts(o)

	steps := []struct {
		name               string
		changes            func() []incr.Change
		recompile, regroup bool
	}{
		{"fw-edit", func() []incr.Change { return a.changes(3, 0) }, false, false},
		{"fw-dead-edit", func() []incr.Change { return a.changes(4, 0) }, false, false},
		{"box-swap", func() []incr.Change { return a.probe(0) }, false, false},
		{"refresh", func() []incr.Change { return nil }, false, false},
		{"relabel", func() []incr.Change { return a.changes(5, 1) }, false, true},
		{"inv-add", func() []incr.Change { return a.changes(6, 0) }, false, true},
		{"node-down", func() []incr.Change { return []incr.Change{incr.NodeDown(a.d.FW2)} }, true, false},
		{"fib", func() []incr.Change { return a.changes(1, 0) }, true, false},
		{"fw-edit-after", func() []incr.Change { return a.changes(3, 1) }, false, false},
	}
	for _, st := range steps {
		engs0, groups0 := s.CompiledState()
		reports, err := s.Apply(st.changes())
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		compareReports(t, st.name, reports, baseline(t, s, dcOpts, true))
		engs, groups := s.CompiledState()
		spans := spanCounts(o)
		if got := spans["tf-compile"] == 1; got != st.recompile {
			t.Errorf("%s: tf-compile spans = %d, want recompile=%v", st.name, spans["tf-compile"], st.recompile)
		}
		if got := spans["regroup"] == 1; got != st.regroup {
			t.Errorf("%s: regroup spans = %d, want regroup=%v", st.name, spans["regroup"], st.regroup)
		}
		if !st.recompile && !sameEngines(engs, engs0) {
			t.Errorf("%s: engines were recompiled", st.name)
		}
		if !st.regroup && !sameGroups(groups, groups0) {
			t.Errorf("%s: invariants were regrouped", st.name)
		}
		if len(engs) != len(s.EffectiveScenarios()) || len(groups) == 0 {
			t.Fatalf("%s: compiled state missing: %d engines, %d groups", st.name, len(engs), len(groups))
		}
	}
}

// TestProposeContainsCompiledState checks that the engines and groups a
// Propose compiles on its shadow state reach the session only through
// Commit: while pending and after Rollback the session keeps its own,
// and the next firewall edit still verifies like a from-scratch run.
func TestProposeContainsCompiledState(t *testing.T) {
	cases := []struct {
		name    string
		propose func(a *dcTarget) []incr.Change
		commit  bool
	}{
		{"node-down/rollback", func(a *dcTarget) []incr.Change { return []incr.Change{incr.NodeDown(a.d.FW2)} }, false},
		{"relabel/rollback", func(a *dcTarget) []incr.Change { return []incr.Change{incr.Relabel(a.d.Hosts[0][0], "probe-class")} }, false},
		{"node-down/commit", func(a *dcTarget) []incr.Change { return []incr.Change{incr.NodeDown(a.d.FW2)} }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newDCTarget(t, false, incr.Options{})
			s := a.session()
			engs0, groups0 := s.CompiledState()
			if _, err := s.Propose(c.propose(a)); err != nil {
				t.Fatalf("Propose: %v", err)
			}
			if engs, groups := s.CompiledState(); !sameEngines(engs, engs0) || !sameGroups(groups, groups0) {
				t.Fatal("pending Propose replaced the session's engines or groups")
			}
			if c.commit {
				reports, err := s.Commit()
				if err != nil {
					t.Fatalf("Commit: %v", err)
				}
				compareReports(t, "commit", reports, baseline(t, s, dcOpts, true))
				engs, _ := s.CompiledState()
				for _, e := range engs {
					if !e.Failure().Failed(a.d.FW2) {
						t.Fatal("committed node-down kept engines compiled without the failure")
					}
				}
			} else {
				if err := s.Rollback(); err != nil {
					t.Fatalf("Rollback: %v", err)
				}
				if engs, groups := s.CompiledState(); !sameEngines(engs, engs0) || !sameGroups(groups, groups0) {
					t.Fatal("rolled-back Propose leaked its engines or groups")
				}
			}
			engs1, groups1 := s.CompiledState()
			reports, err := s.Apply(a.changes(3, 0))
			if err != nil {
				t.Fatalf("fw edit: %v", err)
			}
			compareReports(t, "fw edit", reports, baseline(t, s, dcOpts, true))
			if engs, groups := s.CompiledState(); !sameEngines(engs, engs1) || !sameGroups(groups, groups1) {
				t.Fatal("fw edit after the transaction recompiled or regrouped")
			}
		})
	}
}

// TestFailedApplyDropsCompiledState half-applies a change-set (a FIB
// update and a live firewall edit land before an unknown node fails the
// set): the session must drop its engines and groups, and the next Apply
// must rebuild them from the mutated network.
func TestFailedApplyDropsCompiledState(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{})
	s := a.session()
	bad := topo.NodeID(s.Network().Topo.NumNodes() + 7)
	changes := append(a.changes(1, 0), a.changes(3, 0)...)
	if _, err := s.Apply(append(changes, incr.NodeDown(bad))); err == nil {
		t.Fatal("apply naming an unknown node succeeded")
	}
	if engs, groups := s.CompiledState(); engs != nil || groups != nil {
		t.Fatalf("failed apply kept %d engines and %d groups", len(engs), len(groups))
	}
	reports, err := s.Apply(a.changes(3, 1))
	if err != nil {
		t.Fatalf("apply after failure: %v", err)
	}
	compareReports(t, "after failure", reports, baseline(t, s, dcOpts, true))
	if engs, groups := s.CompiledState(); len(engs) == 0 || len(groups) == 0 {
		t.Fatal("apply after failure did not rebuild the compiled state")
	}
}
