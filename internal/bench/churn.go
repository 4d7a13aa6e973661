package bench

import (
	"fmt"
	"math/rand"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Instrument, when non-nil, is attached to every incremental session the
// scenario drivers build (churn, guardrail), so a run can export the
// metrics registry alongside the timing rows (vmnbench -obs) and the
// instrumentation overhead can be measured against the nil default
// (BenchmarkChurnApplyObs*). nil — the default — keeps the sessions on
// the library's zero-overhead disabled path.
var Instrument *obs.Obs

// instrumented attaches the package Instrument hook to session options
// that don't already carry an observability instance.
func instrumented(sopts incr.Options) incr.Options {
	if sopts.Obs == nil {
		sopts.Obs = Instrument
	}
	return sopts
}

// Churn sizes: rack-local changes touch ~2/groups of the invariant set,
// so 12 groups keeps the dirtied fraction under 20% per step.
const (
	churnGroups  = 12
	churnTenants = 12
)

// Churn measures incremental vs full re-verification over a stream of
// random rack-local changes (policy relabels, host liveness toggles,
// rack-level forwarding updates, per-tenant firewall reconfigurations) on
// the Fig 2 datacenter and the §5.3.2 multi-tenant scenarios. For each
// scenario it emits three rows — "<scenario>/incremental" (prefix/rule-
// level dirtying), "<scenario>/incremental-node" (the node-granularity
// escape hatch, PR 2's baseline) and "<scenario>/full" — whose samples are
// per-step wall-clock times: the incremental sides are one Session.Apply
// over identical change streams on identical networks, the full side a
// from-scratch VerifyAll over the identical post-change network.
// Dirtied/DirtyFraction/RefinedClean/CacheHits/Solves record each
// session's accounting, so the JSON artifact carries the dirty-fraction
// series (prefix-level vs node-level) alongside the speedup.
func Churn(steps, runs int) Series {
	s := Series{Fig: "churn", Title: "incremental vs full re-verification under change streams"}
	dcInc := Row{Label: "datacenter/incremental", X: steps}
	dcNode := Row{Label: "datacenter/incremental-node", X: steps}
	dcFull := Row{Label: "datacenter/full", X: steps}
	fibInc := Row{Label: "datacenter-fib/incremental", X: steps}
	fibNode := Row{Label: "datacenter-fib/incremental-node", X: steps}
	fibFull := Row{Label: "datacenter-fib/full", X: steps}
	mtInc := Row{Label: "multitenant/incremental", X: steps}
	mtNode := Row{Label: "multitenant/incremental-node", X: steps}
	mtFull := Row{Label: "multitenant/full", X: steps}
	for r := 0; r < runs; r++ {
		churnDatacenter(steps, int64(r), incr.Options{}, &dcInc, &dcFull)
		churnDatacenter(steps, int64(r), incr.Options{NodeGranularity: true}, &dcNode, nil)
		churnDatacenterFIB(steps, int64(r), incr.Options{}, &fibInc, &fibFull)
		churnDatacenterFIB(steps, int64(r), incr.Options{NodeGranularity: true}, &fibNode, nil)
		churnMultiTenant(steps, int64(r), incr.Options{}, &mtInc, &mtFull)
		churnMultiTenant(steps, int64(r), incr.Options{NodeGranularity: true}, &mtNode, nil)
	}
	finish := func(row *Row) {
		// Derive the fraction from the untruncated total; the integer
		// per-step average truncates afterwards.
		if n := len(row.Samples); n > 0 {
			if row.Invariants > 0 {
				row.DirtyFraction = float64(row.Dirtied) / float64(n) / float64(row.Invariants)
			}
			row.Dirtied /= n
		}
	}
	finish(&dcInc)
	finish(&dcNode)
	finish(&fibInc)
	finish(&fibNode)
	finish(&mtInc)
	finish(&mtNode)
	s.Rows = append(s.Rows, dcInc, dcNode, dcFull, fibInc, fibNode, fibFull, mtInc, mtNode, mtFull)
	return s
}

// churnDatacenterFIB is the pure FIB-update stream over the SHARED
// aggregation switch — the workload prefix-level dirtying exists for:
// every step toggles a steering shadow rule for one group's prefix at the
// agg, which sits in every slice's footprint, so node-granularity
// dirtying re-verifies the entire invariant set each step while
// prefix-level dirtying re-verifies only the pairs reading that group's
// atoms.
func churnDatacenterFIB(steps int, seed int64, sopts incr.Options, inc, full *Row) {
	const G = churnGroups
	d := NewDatacenter(DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	opts := core.Options{Engine: core.EngineSAT, Seed: seed}
	sess, _, err := incr.NewSession(d.Net, opts, invs, instrumented(sopts))
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(seed + 2))
	baseFIB := d.Net.FIBFor
	shadowed := map[int]bool{}
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
		changes := []incr.Change{incr.FIBUpdate(overlayFIB(baseFIB, map[topo.NodeID][]tf.Rule{d.Agg: rules}))}
		churnStep(sess, opts, changes, inc, full)
	}
}

// overlayFIB layers the overlay's rules (prepended, so they sort ahead of
// equal-priority base rules) over base forwarding state. The overlay is
// snapshotted per call: each returned provider is independent, so the
// session's FIB diffing sees genuinely old vs new tables across updates.
func overlayFIB(base func(topo.FailureScenario) tf.FIB, overlay map[topo.NodeID][]tf.Rule) func(topo.FailureScenario) tf.FIB {
	snap := map[topo.NodeID][]tf.Rule{}
	for n, rs := range overlay {
		snap[n] = append([]tf.Rule(nil), rs...)
	}
	return func(sc topo.FailureScenario) tf.FIB {
		fib := base(sc)
		if len(snap) == 0 {
			return fib
		}
		out := tf.FIB{}
		for n, rs := range fib {
			out[n] = rs
		}
		for n, rs := range snap {
			out[n] = append(append([]tf.Rule(nil), rs...), out[n]...)
		}
		return out
	}
}

// churnStep applies one change-set to the session (timed into inc) and
// then — when full is non-nil — measures a from-scratch VerifyAll over the
// same mutated network (timed into full).
func churnStep(sess *incr.Session, opts core.Options, changes []incr.Change, inc, full *Row) {
	incDur := timeIt(func() {
		if _, err := sess.Apply(changes); err != nil {
			panic(err)
		}
	})
	inc.Samples = append(inc.Samples, incDur)
	accountApply(inc, sess.LastApply())

	if full == nil {
		return
	}
	opts.Scenarios = sess.EffectiveScenarios()
	full.Samples = append(full.Samples, timeIt(func() {
		v := mustVerifier(sess.Network(), opts)
		if _, err := v.VerifyAll(sess.Invariants(), true); err != nil {
			panic(err)
		}
	}))
	// Churn counters stay unset on the full-baseline row: it dirties and
	// caches nothing, and setting Invariants would make Print render a
	// misleading "dirty 0/N" annotation for it.
}

func churnDatacenter(steps int, seed int64, sopts incr.Options, inc, full *Row) {
	const G = churnGroups
	d := NewDatacenter(DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	opts := core.Options{Engine: core.EngineSAT, Seed: seed}
	sess, _, err := incr.NewSession(d.Net, opts, invs, instrumented(sopts))
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(seed))
	baseFIB := d.Net.FIBFor
	overlay := map[topo.NodeID][]tf.Rule{}
	hostDown := map[topo.NodeID]bool{}
	relabeled := map[topo.NodeID]bool{}
	for step := 0; step < steps; step++ {
		g := rng.Intn(G)
		var changes []incr.Change
		switch step % 3 {
		case 0: // policy relabel toggle (rack-local)
			h := d.Hosts[g][0]
			if relabeled[h] {
				delete(relabeled, h)
				changes = append(changes, incr.Relabel(h, d.Cfg.tierOf(g)))
			} else {
				relabeled[h] = true
				changes = append(changes, incr.Relabel(h, fmt.Sprintf("churn-%d", g)))
			}
		case 1: // host liveness toggle
			h := d.Hosts[g][0]
			if hostDown[h] {
				delete(hostDown, h)
				changes = append(changes, incr.NodeUp(h))
			} else {
				hostDown[h] = true
				changes = append(changes, incr.NodeDown(h))
			}
		case 2: // rack-destined forwarding update at the SHARED aggregation
			// switch (shadow steering rule toggle): the case prefix-level
			// dirtying exists for — the agg is in every slice's footprint,
			// but only group g's atoms fall under the changed prefix.
			agg := d.Agg
			if len(overlay[agg]) > 0 {
				delete(overlay, agg)
			} else {
				overlay[agg] = []tf.Rule{{
					Match:    ClientPrefix(g),
					In:       topo.NodeNone,
					Out:      d.FW1,
					Priority: 11,
				}}
			}
			changes = append(changes, incr.FIBUpdate(overlayFIB(baseFIB, overlay)))
		}
		churnStep(sess, opts, changes, inc, full)
	}
}

func churnMultiTenant(steps int, seed int64, sopts incr.Options, inc, full *Row) {
	const T = churnTenants
	m := NewMultiTenant(MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
	// Per-tenant policy classes keep symmetry groups fine-grained so the
	// dirtied-invariant accounting is per-pair, like production per-tenant
	// policies.
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
	opts := core.Options{Engine: core.EngineSAT, Seed: seed}
	sess, _, err := incr.NewSession(m.Net, opts, invs, instrumented(sopts))
	if err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(seed + 1))
	baseFIB := m.Net.FIBFor
	overlay := map[topo.NodeID][]tf.Rule{}
	shadowed := map[int]bool{}
	vmDown := map[topo.NodeID]bool{}
	for step := 0; step < steps; step++ {
		tn := rng.Intn(T)
		var changes []incr.Change
		switch step % 3 {
		case 0: // per-tenant firewall reconfiguration (shadow entry toggle)
			fw := m.Firewalls[tn]
			if shadowed[tn] {
				delete(shadowed, tn)
				fw.ACL = fw.ACL[1:]
			} else {
				shadowed[tn] = true
				fw.ACL = append([]mbox.ACLEntry{
					mbox.AllowEntry(TenantPrivPrefix(tn), TenantPrivPrefix(tn)),
				}, fw.ACL...)
			}
			changes = append(changes, incr.BoxReconfig(m.VSwitchFW[tn]))
		case 1: // VM liveness toggle
			vm := m.PrivVMs[tn][0]
			if vmDown[vm] {
				delete(vmDown, vm)
				changes = append(changes, incr.NodeUp(vm))
			} else {
				vmDown[vm] = true
				changes = append(changes, incr.NodeDown(vm))
			}
		case 2: // tenant-destined forwarding update at the SHARED fabric
			// switch (shadow steering rule toggle): every inter-tenant
			// slice crosses the fabric, but only tenant tn's atoms fall
			// under the changed prefix.
			fab := m.Fabric
			if len(overlay[fab]) > 0 {
				delete(overlay, fab)
			} else {
				overlay[fab] = []tf.Rule{{
					Match:    TenantPrefix(tn),
					In:       topo.NodeNone,
					Out:      m.VSwitchFW[tn],
					Priority: 11,
				}}
			}
			changes = append(changes, incr.FIBUpdate(overlayFIB(baseFIB, overlay)))
		}
		churnStep(sess, opts, changes, inc, full)
	}
}
