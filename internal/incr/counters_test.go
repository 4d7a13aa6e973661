package incr_test

// The session's counters have one record each: Totals (lifetime) and
// ApplyStats (last apply). These tests pin that the vmn_incr_* metrics
// are read from those records — equal by construction through applies,
// batches, rolled-back and committed proposes and failed applies — and
// that reading them never waits on an apply in flight.

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/topo"
)

// totalsByMetric names the Totals field behind each lifetime counter.
var totalsByMetric = map[string]func(incr.Totals) int{
	"vmn_incr_applies_total":         func(t incr.Totals) int { return t.Applies },
	"vmn_incr_changes_total":         func(t incr.Totals) int { return t.Changes },
	"vmn_incr_solves_total":          func(t incr.Totals) int { return t.Solves },
	"vmn_incr_cache_hits_total":      func(t incr.Totals) int { return t.CacheHits },
	"vmn_incr_canon_hits_total":      func(t incr.Totals) int { return t.CanonHits },
	"vmn_incr_canon_shared_total":    func(t incr.Totals) int { return t.CanonShared },
	"vmn_incr_refined_clean_total":   func(t incr.Totals) int { return t.RefinedClean },
	"vmn_incr_budget_exceeded_total": func(t incr.Totals) int { return t.BudgetExceeded },
	"vmn_incr_dirty_groups_total":    func(t incr.Totals) int { return t.DirtyGroups },
	"vmn_incr_batches_total":         func(t incr.Totals) int { return t.Batches },
	"vmn_incr_batch_enqueued_total":  func(t incr.Totals) int { return t.Enqueued },
	"vmn_incr_batch_coalesced_total": func(t incr.Totals) int { return t.Coalesced },
}

// checkMetricsMatchRecords asserts every lifetime counter equals its
// Totals field and both gauges equal LastApply.
func checkMetricsMatchRecords(t *testing.T, step string, o *obs.Obs, s *incr.Session) {
	t.Helper()
	snap := o.Metrics.Snapshot()
	tot, last := s.TotalStats(), s.LastApply()
	for name, get := range totalsByMetric {
		got, ok := snap[name]
		if !ok {
			t.Fatalf("%s: metric %s not exported", step, name)
		}
		if int(got) != get(tot) {
			t.Fatalf("%s: %s = %v, totals say %d (%+v)", step, name, got, get(tot), tot)
		}
	}
	if int(snap["vmn_incr_groups"]) != last.Groups || int(snap["vmn_incr_invariants"]) != last.Invariants {
		t.Fatalf("%s: gauges groups=%v invariants=%v, last apply %+v",
			step, snap["vmn_incr_groups"], snap["vmn_incr_invariants"], last)
	}
}

func TestMetricsEqualTotals(t *testing.T) {
	o := obs.New(0)
	a := newDCTarget(t, false, incr.Options{Workers: 1, Obs: o})
	s := a.session()
	checkMetricsMatchRecords(t, "new session", o, s)

	if _, err := s.Apply(a.changes(4, 0)); err != nil {
		t.Fatal(err)
	}
	checkMetricsMatchRecords(t, "apply", o, s)

	batch := append(a.changes(5, 1), a.changes(5, 1)...)
	batch = append(batch, a.changes(0, 3)...)
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if s.TotalStats().Coalesced == 0 {
		t.Fatalf("batch coalesced nothing: %+v", s.LastApply())
	}
	checkMetricsMatchRecords(t, "apply batch", o, s)

	pr, err := s.Propose(a.probe(0))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Decision != incr.Reject || len(pr.Repairs) == 0 {
		t.Fatalf("violating probe must be rejected with a repair: %v, repairs %+v", pr.Decision, pr.Repairs)
	}
	checkMetricsMatchRecords(t, "propose pending", o, s)
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	checkMetricsMatchRecords(t, "rollback", o, s)

	if _, err := s.Propose(a.probe(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	checkMetricsMatchRecords(t, "commit", o, s)

	before := s.TotalStats()
	if _, err := s.Apply([]incr.Change{incr.NodeDown(topo.NodeID(a.d.Net.Topo.NumNodes()))}); err == nil {
		t.Fatal("apply of an unknown node must fail")
	}
	if s.TotalStats() != before {
		t.Fatal("a failed apply must not count")
	}
	checkMetricsMatchRecords(t, "failed apply", o, s)

	// The collectors keep the exported series types.
	var sb strings.Builder
	if err := o.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for name := range totalsByMetric {
		if !strings.Contains(sb.String(), "# TYPE "+name+" counter\n") {
			t.Fatalf("%s must export as a counter:\n%s", name, sb.String())
		}
	}
	for _, name := range []string{"vmn_incr_groups", "vmn_incr_invariants"} {
		if !strings.Contains(sb.String(), "# TYPE "+name+" gauge\n") {
			t.Fatalf("%s must export as a gauge:\n%s", name, sb.String())
		}
	}
}

// TestScrapeDoesNotWaitOnApply parks an apply inside its first group
// solve and requires every counter read to return meanwhile.
func TestScrapeDoesNotWaitOnApply(t *testing.T) {
	var park atomic.Bool
	parked := make(chan struct{})
	release := make(chan struct{})
	o := obs.New(0)
	a := newDCTarget(t, false, incr.Options{Workers: 1, Obs: o, FaultHook: func(string) {
		if park.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}})
	s := a.session()

	park.Store(true)
	applied := make(chan error, 1)
	go func() {
		_, err := s.Apply([]incr.Change{incr.NodeDown(a.d.FW1)})
		applied <- err
	}()
	<-parked

	read := make(chan struct{})
	go func() {
		defer close(read)
		o.Metrics.Snapshot()
		o.Metrics.WritePrometheus(&strings.Builder{})
		s.TotalStats()
		s.LastApply()
	}()
	select {
	case <-read:
	case <-time.After(2 * time.Second):
		t.Error("counter reads blocked behind the parked apply")
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	<-read
}
