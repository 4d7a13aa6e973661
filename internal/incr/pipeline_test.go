package incr_test

// Pipeline tests: result ranges tile the submission stream in order,
// the final verdict set matches a from-scratch VerifyAll over the final
// network, and NoCoalesce mode degenerates to one result per change.

import (
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// runPipeline builds a 4-group datacenter session, streams `steps`
// rotating steering-rule updates through a Pipeline, and returns the
// session plus the ordered results.
func runPipeline(t *testing.T, po incr.PipelineOptions, steps int) (*incr.Session, []incr.PipelineResult) {
	t.Helper()
	d := bench.NewDatacenter(bench.DCConfig{Groups: 4, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT},
		d.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the base provider before the worker starts: applying a
	// KindFIB change swaps the network's provider in place, and overlays
	// must stack on a stable base, not race with the swap.
	base := d.Net.FIBFor
	pl := incr.NewPipeline(sess, po)
	done := make(chan []incr.PipelineResult)
	go func() {
		var rs []incr.PipelineResult
		for r := range pl.Results() {
			rs = append(rs, r)
		}
		done <- rs
	}()
	for i := 0; i < steps; i++ {
		r := tf.Rule{Match: bench.ClientPrefix(i % 4), In: topo.NodeNone, Out: d.FW1, Priority: 11 + i}
		pl.Submit(incr.FIBUpdate(overlayFIBFor(base, map[topo.NodeID][]tf.Rule{d.Agg: {r}})))
	}
	pl.Close()
	return sess, <-done
}

func TestPipelineOrderingAndSoundness(t *testing.T) {
	const steps = 7
	sess, results := runPipeline(t, incr.PipelineOptions{Queue: 4}, steps)

	next := 1
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.First != next || r.Last < r.First {
			t.Fatalf("result %d range [%d,%d], want contiguous from %d", i, r.First, r.Last, next)
		}
		if got := r.Stats.Enqueued; got != r.Last-r.First+1 {
			t.Fatalf("result %d: stats enqueued %d, range width %d", i, got, r.Last-r.First+1)
		}
		next = r.Last + 1
	}
	if next != steps+1 {
		t.Fatalf("results cover 1..%d, want 1..%d", next-1, steps)
	}
	final := results[len(results)-1]
	compareReports(t, "pipeline final", final.Reports,
		baseline(t, sess, core.Options{Engine: core.EngineSAT}, true))
}

func TestPipelineNoCoalesce(t *testing.T) {
	const steps = 5
	sess, results := runPipeline(t, incr.PipelineOptions{Queue: 4, NoCoalesce: true}, steps)
	if len(results) != steps {
		t.Fatalf("NoCoalesce must emit one result per change: %d for %d", len(results), steps)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.First != i+1 || r.Last != i+1 {
			t.Fatalf("result %d range [%d,%d], want [%d,%d]", i, r.First, r.Last, i+1, i+1)
		}
		if r.Stats.Coalesced != 0 {
			t.Fatalf("NoCoalesce result %d reports coalescing: %+v", i, r.Stats)
		}
	}
	compareReports(t, "no-coalesce final", results[len(results)-1].Reports,
		baseline(t, sess, core.Options{Engine: core.EngineSAT}, true))
}

// TestPipelineErrorCarriesNoStats: a failed apply's result must not
// carry the previous apply's stats.
func TestPipelineErrorCarriesNoStats(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT},
		d.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := incr.NewPipeline(sess, incr.PipelineOptions{Queue: 4, NoCoalesce: true})
	pl.Submit(incr.NodeDown(d.FW2))
	pl.Submit(incr.NodeDown(topo.NodeID(d.Net.Topo.NumNodes())))
	pl.Close()
	var results []incr.PipelineResult
	for r := range pl.Results() {
		results = append(results, r)
	}
	if len(results) != 2 || results[0].Err != nil || results[1].Err == nil {
		t.Fatalf("want one good and one failed result, got %+v", results)
	}
	if results[1].Stats != (incr.ApplyStats{}) {
		t.Fatalf("failed result carries stats %+v", results[1].Stats)
	}
}
