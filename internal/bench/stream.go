package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// streamQueue bounds the pipeline ingest queue for the pipelined rows —
// the same default vmnd serves with, so the figure measures the shipped
// configuration.
const streamQueue = 64

// Stream measures the streaming change pipeline under a sustained
// high-rate FIB-churn stream: an unthrottled producer pushes `steps`
// forwarding updates against the SHARED aggregation/fabric switch (the
// datacenter and multi-tenant scenarios of Churn) and each mode's
// sustained throughput and per-update apply latency are recorded.
//
// Four modes per scenario isolate where the speedup comes from:
//
//	pipelined-coalesced — incr.Pipeline: ingest overlaps verification
//	    and each worker pass drains the queue into ONE coalesced Apply.
//	pipelined           — same overlap, NoCoalesce: one Apply per update.
//	serial              — Session.Apply per update on the caller's
//	    goroutine (prefix-level dirtying).
//	serial-node         — serial with the node-granularity escape hatch.
//
// Row.Samples hold per-update apply latencies (for batched results the
// batch's Apply duration is attributed evenly across its member
// updates), so Percentile(50)/Percentile(95) are the p50/p95 per-update
// latencies. Sustained updates/sec (wall clock from first submit to
// last verdict, totalled across runs), the number of Apply passes each
// mode needed, and the pipelined-coalesced vs serial speedup per
// scenario are published in Series.Metrics:
//
//	stream_updates_per_sec/<scenario>/<mode>
//	stream_applies/<scenario>/<mode>
//	stream_speedup/<scenario>
//
// Because every update rewrites the same shared switch, batching N
// queued updates coalesces them to one last-writer-wins diff: the
// coalesced row's Apply count collapses toward steps/queue-depth while
// verdict streams stay bit-identical at batch boundaries (see
// incr.Coalesce), which is the whole figure.
func Stream(steps, runs int) Series {
	s := Series{
		Fig:     "stream",
		Title:   "sustained FIB churn: updates/sec and per-update latency by apply mode",
		Metrics: map[string]float64{},
	}
	modes := []struct {
		name       string
		sopts      incr.Options
		pipelined  bool
		noCoalesce bool
	}{
		{"pipelined-coalesced", incr.Options{}, true, false},
		{"pipelined", incr.Options{}, true, true},
		{"serial", incr.Options{}, false, false},
		{"serial-node", incr.Options{NodeGranularity: true}, false, false},
	}
	scenarios := []struct {
		name  string
		build func(steps int, seed int64, sopts incr.Options) (*incr.Session, []incr.Change)
	}{
		{"datacenter", streamDatacenter},
		{"multitenant", streamMultiTenant},
	}
	for _, sc := range scenarios {
		rates := map[string]float64{}
		for _, m := range modes {
			label := sc.name + "/" + m.name
			row := Row{Label: label, X: steps}
			var updates, applies int
			var elapsed time.Duration
			for r := 0; r < runs; r++ {
				sess, changes := sc.build(steps, int64(r), m.sopts)
				u, el, ap := streamDrive(sess, changes, m.pipelined, m.noCoalesce, &row)
				updates += u
				elapsed += el
				applies += ap
			}
			if n := len(row.Samples); n > 0 {
				if row.Invariants > 0 {
					row.DirtyFraction = float64(row.Dirtied) / float64(n) / float64(row.Invariants)
				}
				row.Dirtied /= n
			}
			var rate float64
			if elapsed > 0 {
				rate = float64(updates) / elapsed.Seconds()
			}
			rates[m.name] = rate
			s.Metrics["stream_updates_per_sec/"+label] = rate
			s.Metrics["stream_applies/"+label] = float64(applies)
			s.Rows = append(s.Rows, row)
		}
		if rates["serial"] > 0 {
			s.Metrics["stream_speedup/"+sc.name] = rates["pipelined-coalesced"] / rates["serial"]
		}
	}
	return s
}

// streamDrive pushes a pre-generated change stream through one session
// in the given mode, appending per-update latency samples and apply
// accounting to row. It returns the update count, the wall-clock time
// from first submission to last verdict, and the number of Apply
// passes the stream cost.
func streamDrive(sess *incr.Session, changes []incr.Change, pipelined, noCoalesce bool, row *Row) (updates int, elapsed time.Duration, applies int) {
	if !pipelined {
		start := time.Now()
		for i := range changes {
			d := timeIt(func() {
				if _, err := sess.Apply(changes[i : i+1]); err != nil {
					panic(err)
				}
			})
			row.Samples = append(row.Samples, d)
			accountApply(row, sess.LastApply())
		}
		return len(changes), time.Since(start), len(changes)
	}

	pl := incr.NewPipeline(sess, incr.PipelineOptions{Queue: streamQueue, NoCoalesce: noCoalesce})
	done := make(chan int)
	go func() {
		n := 0
		for r := range pl.Results() {
			if r.Err != nil {
				panic(r.Err)
			}
			n++
			// Attribute the batch's Apply duration evenly across the
			// updates it absorbed: the percentile columns then read as
			// amortised per-update latency, comparable across modes.
			width := r.Last - r.First + 1
			per := r.Stats.Duration / time.Duration(width)
			for i := 0; i < width; i++ {
				row.Samples = append(row.Samples, per)
			}
			accountApply(row, r.Stats)
		}
		done <- n
	}()
	start := time.Now()
	for _, ch := range changes {
		pl.Submit(ch)
	}
	pl.Close()
	applies = <-done
	return len(changes), time.Since(start), applies
}

// accountApply adds one apply's dirty and cache counts to an incremental
// row.
func accountApply(row *Row, st incr.ApplyStats) {
	row.Invariants = st.Invariants
	row.Dirtied += st.DirtyInvariants
	row.RefinedClean += st.RefinedClean
	row.CacheHits += st.CacheHits
	row.Solves += st.CacheMisses
}

// streamDatacenter builds a fresh churn-scale datacenter session and
// pre-generates the full update stream against it: every step toggles
// one group's steering shadow rule at the SHARED aggregation switch
// (the churnDatacenterFIB workload). The stream is generated up front
// from a snapshot of the base provider so producer-side overlay
// construction never races with the session swapping the provider
// during Apply.
func streamDatacenter(steps int, seed int64, sopts incr.Options) (*incr.Session, []incr.Change) {
	const G = churnGroups
	d := NewDatacenter(DCConfig{Groups: G, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT, Seed: seed},
		d.AllIsolationInvariants(), instrumented(sopts))
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(seed + 5))
	baseFIB := d.Net.FIBFor
	shadowed := map[int]bool{}
	changes := make([]incr.Change, 0, steps)
	for step := 0; step < steps; step++ {
		g := rng.Intn(G)
		if shadowed[g] {
			delete(shadowed, g)
		} else {
			shadowed[g] = true
		}
		var rules []tf.Rule
		for sg := 0; sg < G; sg++ { // deterministic order: positional diffs stay minimal
			if shadowed[sg] {
				rules = append(rules, tf.Rule{Match: ClientPrefix(sg), In: topo.NodeNone, Out: d.FW1, Priority: 11})
			}
		}
		changes = append(changes, incr.FIBUpdate(overlayFIB(baseFIB, map[topo.NodeID][]tf.Rule{d.Agg: rules})))
	}
	return sess, changes
}

// streamMultiTenant is the multi-tenant analogue: per-tenant steering
// shadow rules toggled at the SHARED fabric switch, against the
// churnMultiTenant invariant grid (per-tenant policy classes, all
// ordered priv-priv pairs).
func streamMultiTenant(steps int, seed int64, sopts incr.Options) (*incr.Session, []incr.Change) {
	const T = churnTenants
	m := NewMultiTenant(MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
	for tn := 0; tn < T; tn++ {
		for _, vm := range m.PubVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("pub-%d", tn)
		}
		for _, vm := range m.PrivVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("priv-%d", tn)
		}
	}
	var invs []inv.Invariant
	for a := 0; a < T; a++ {
		for b := 0; b < T; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b))
			}
		}
	}
	sess, _, err := incr.NewSession(m.Net, core.Options{Engine: core.EngineSAT, Seed: seed},
		invs, instrumented(sopts))
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(seed + 7))
	baseFIB := m.Net.FIBFor
	shadowed := map[int]bool{}
	changes := make([]incr.Change, 0, steps)
	for step := 0; step < steps; step++ {
		tn := rng.Intn(T)
		if shadowed[tn] {
			delete(shadowed, tn)
		} else {
			shadowed[tn] = true
		}
		var rules []tf.Rule
		for st := 0; st < T; st++ {
			if shadowed[st] {
				rules = append(rules, tf.Rule{Match: TenantPrefix(st), In: topo.NodeNone, Out: m.VSwitchFW[st], Priority: 11})
			}
		}
		changes = append(changes, incr.FIBUpdate(overlayFIB(baseFIB, map[topo.NodeID][]tf.Rule{m.Fabric: rules})))
	}
	return sess, changes
}
