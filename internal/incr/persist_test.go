package incr_test

// Durability unit tests: warm restart serves every verdict from the
// restored store (zero solves), client request ids dedup across
// restarts, and every damage mode — corrupt journal, configuration
// drift, unpersistable changes — degrades to an EXPLICIT cold start
// with correct (freshly computed) verdicts, never a silent partial
// restore. The kill-mid-churn differential harness lives in
// crash_test.go.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/topo"
)

func newPersistDC(t *testing.T, sopts incr.Options) (*bench.Datacenter, *incr.Session, []core.Report) {
	t.Helper()
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	sess, reports, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	return d, sess, reports
}

func persistOpts(dir string) incr.Options {
	return incr.Options{Persist: &incr.PersistOptions{Dir: dir}}
}

// A warm restart on an unchanged network must re-verify nothing: every
// group is served from the restored verdict store — zero cache misses,
// zero solves — with reports and witnesses identical to the session
// that shut down.
func TestWarmRestartZeroSolves(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	// Mutate so the snapshot covers non-initial state too.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Apply([]incr.Change{incr.NodeUp(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	want := s1.CurrentReports()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	_, s2, got := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.Enabled || !rec.Recovered || rec.ColdStart {
		t.Fatalf("recovery = %+v, want recovered warm start", rec)
	}
	if rec.RecoveredGroups == 0 {
		t.Fatalf("recovery restored no groups: %+v", rec)
	}
	if rec.ReverifiedOnRecovery == 0 || rec.SampleMismatch {
		t.Fatalf("recovery sample: %+v", rec)
	}
	if st := s2.LastApply(); st.CacheMisses != 0 {
		t.Fatalf("warm restart missed the cache %d times: %+v", st.CacheMisses, st)
	}
	if tot := s2.TotalStats(); tot.Solves != 0 {
		t.Fatalf("warm restart re-solved %d times", tot.Solves)
	}
	compareReports(t, "warm-restart", got, want)
	compareWitnesses(t, "warm-restart", got, want)

	// The restored session keeps verifying correctly.
	reports, err := s2.Apply([]incr.Change{incr.NodeDown(d1.Hosts[1][0])})
	if err != nil {
		t.Fatal(err)
	}
	base := baseline(t, s2, core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "post-restart-apply", reports, base)
}

// Client request ids must deduplicate within a process and across a
// restart (at-least-once wire clients replay unacked requests).
func TestAppliedIDsDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	if _, dup, err := s1.ApplyID("req-1", []incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil || dup {
		t.Fatal(dup, err)
	}
	want := s1.CurrentReports()
	// Same id again: not re-applied.
	got, dup, err := s1.ApplyID("req-1", []incr.Change{incr.NodeDown(d1.Hosts[1][0])})
	if err != nil || !dup {
		t.Fatalf("dup=%v err=%v", dup, err)
	}
	compareReports(t, "in-process-dup", got, want)
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	d2, s2, _ := newPersistDC(t, persistOpts(dir))
	if !s2.IsApplied("req-1") {
		t.Fatal("req-1 forgotten across restart")
	}
	got, dup, err = s2.ApplyID("req-1", []incr.Change{incr.NodeDown(d2.Hosts[1][0])})
	if err != nil || !dup {
		t.Fatalf("after restart: dup=%v err=%v", dup, err)
	}
	compareReports(t, "cross-restart-dup", got, want)
	if s2.IsApplied("req-2") {
		t.Fatal("unknown id reported applied")
	}
}

// A corrupt journal record (bit flip inside a complete record) must be
// DETECTED: recovery reports an explicit cold start, the damaged files
// move aside, and the session serves the freshly built network's
// verdicts — the one outcome that can never happen is a silent restore
// of a diverged state.
func TestCorruptJournalExplicitColdStart(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	// Disable periodic snapshots so the records stay in the journal,
	// then remove the startup snapshot to force journal replay.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	// Abandon without Shutdown (simulated SIGKILL).
	jp := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 12 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(data))
	}
	data[10] ^= 0x04 // inside the first record's payload
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, s2, got := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Recovered || rec.Reason == "" {
		t.Fatalf("recovery = %+v, want explicit cold start", rec)
	}
	if _, err := os.Stat(jp + ".corrupt"); err != nil {
		t.Fatalf("damaged journal not preserved: %v", err)
	}
	// Cold start == fresh session over the initial network.
	dRef := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	_, want, err := incr.NewSession(dRef.Net, core.Options{Engine: core.EngineSAT}, dRef.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "cold-start", got, want)
	compareWitnesses(t, "cold-start", got, want)
	// And the new store works: apply, shut down, warm-restart again.
	if _, err := s2.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, s3, _ := newPersistDC(t, persistOpts(dir))
	if rec := s3.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("store unusable after cold start: %+v", rec)
	}
}

// A store written under a different configuration must not transfer:
// recovery detects the config-hash mismatch and cold starts explicitly.
// That holds for a different invariant set and for an edited initial box
// configuration, which the stored boxes must not silently override.
func TestConfigDriftColdStart(t *testing.T) {
	for name, drift := range map[string]func(d *bench.Datacenter) []inv.Invariant{
		"invariants": func(d *bench.Datacenter) []inv.Invariant {
			return d.AllIsolationInvariants()[:2]
		},
		"box": func(d *bench.Datacenter) []inv.Invariant {
			for i, bx := range d.Net.Boxes {
				if bx.Node == d.IDS1 {
					d.Net.Boxes[i].Model = mbox.NewIDPS("ids1", d.Net.Registry, pkt.AddrNone, bench.ClientPrefix(0))
				}
			}
			return d.AllIsolationInvariants()
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, s1, _ := newPersistDC(t, persistOpts(dir))
			if err := s1.Shutdown(); err != nil {
				t.Fatal(err)
			}
			d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
			s2, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, drift(d), persistOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			rec := s2.Recovery()
			if !rec.ColdStart || rec.Recovered {
				t.Fatalf("recovery = %+v, want cold start on config drift", rec)
			}
		})
	}
}

// A change outside the durable codec (a FIBFor closure) poisons the
// store: status reports degraded, and the NEXT restart is an explicit
// cold start — the journal can no longer reproduce the live state and
// must say so rather than restore the stale prefix.
func TestOpaqueChangePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	base := d1.Net.FIBFor
	if _, err := s1.Apply([]incr.Change{incr.FIBUpdate(base)}); err != nil {
		t.Fatal(err)
	}
	ps := s1.PersistStatus()
	if ps.Degraded == "" {
		t.Fatalf("status not degraded after opaque change: %+v", ps)
	}
	// Later applies keep working in memory, just not durably.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	_, s2, _ := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Recovered {
		t.Fatalf("recovery = %+v, want cold start after poisoned journal", rec)
	}
	if rec.Reason == "" {
		t.Fatal("cold start without a reason")
	}
}

// PersistStatus surfaces the store's live accounting.
func TestPersistStatus(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	ps := s1.PersistStatus()
	if !ps.Enabled || ps.Dir != dir || ps.Degraded != "" {
		t.Fatalf("status = %+v", ps)
	}
	if ps.SnapshotSeq == 0 {
		t.Fatalf("no startup snapshot: %+v", ps)
	}
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	ps = s1.PersistStatus()
	if ps.JournalRecords != 1 || ps.JournalBytes == 0 {
		t.Fatalf("after one apply: %+v", ps)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Disabled sessions report a zero status.
	d2 := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	s2, _, err := incr.NewSession(d2.Net, core.Options{Engine: core.EngineSAT}, d2.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ps := s2.PersistStatus(); ps.Enabled || ps.Recovery.Enabled {
		t.Fatalf("disabled session status = %+v", ps)
	}
}

// Snapshots and journals store invariants in netdesc's schema: every
// built-in invariant type must round-trip through ExportInvariant and
// ResolveInvariant.
func TestEncodeInvariantRoundTrip(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	topoT := d.Net.Topo
	a0 := topoT.Node(d.Hosts[0][0]).Addr
	for i, c := range []inv.Invariant{
		inv.SimpleIsolation{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "si"},
		inv.FlowIsolation{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "fi"},
		inv.Reachability{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "re"},
		inv.DataIsolation{Dst: d.Hosts[1][0], Origin: a0, Label: "di"},
		inv.Traversal{Dst: d.Hosts[1][0], SrcPrefix: pkt.HostPrefix(a0), SrcAddr: a0, Vias: []topo.NodeID{d.FW1}, Label: "tr"},
	} {
		w, err := netdesc.ExportInvariant(c, topoT)
		if err != nil {
			t.Fatalf("case %d: not exportable: %v", i, err)
		}
		back, err := netdesc.ResolveInvariant(&w, topoT.ByName)
		if err != nil {
			t.Fatalf("case %d: resolve: %v", i, err)
		}
		if fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", c) {
			t.Fatalf("case %d: round trip\n got %#v\nwant %#v", i, back, c)
		}
	}
}

// Every box netdesc can export is durable, not only firewalls: swapping a
// cache's ACL keeps the journal healthy, and both a journal replay (after
// a kill) and a snapshot restore (after a shutdown) come back warm, with
// the verdicts and witnesses of a session that never restarted.
func TestCacheSwapDurable(t *testing.T) {
	opts := core.Options{Engine: core.EngineSAT}
	newDC := func() (*bench.Datacenter, []inv.Invariant) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1, WithCaches: true})
		return d, []inv.Invariant{d.DataIsolationInvariant(0), d.IsolationInvariant(0, 1)}
	}
	// cache0 shares a rack with guest 1; dropping its entries that protect
	// priv0 leaks priv0's content to that guest.
	swap := func(d *bench.Datacenter) []incr.Change {
		c := &mbox.ContentCache{InstanceName: "cache0", DefaultServe: true}
		for _, e := range d.CacheBoxes[0].ACL {
			if !e.Dst.Matches(bench.PrivateAddr(0)) {
				c.ACL = append(c.ACL, e)
			}
		}
		return []incr.Change{incr.BoxSwap(d.Caches[0], c)}
	}

	dU, invsU := newDC()
	sU, _, err := incr.NewSession(dU.Net, opts, invsU, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sU.Apply(swap(dU))
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Satisfied {
		t.Fatal("the cache swap should break data isolation")
	}

	dir := t.TempDir()
	dA, invsA := newDC()
	sA, _, err := incr.NewSession(dA.Net, opts, invsA, persistOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sA.Apply(swap(dA)); err != nil {
		t.Fatal(err)
	}
	if ps := sA.PersistStatus(); ps.Degraded != "" || ps.JournalRecords != 1 {
		t.Fatalf("cache swap not journaled: %+v", ps)
	}
	// Killed: abandoned without Shutdown, so recovery replays the journal.

	for _, step := range []string{"journal replay", "snapshot restore"} {
		dB, invsB := newDC()
		sB, got, err := incr.NewSession(dB.Net, opts, invsB, persistOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if rec := sB.Recovery(); !rec.Recovered || rec.ColdStart || rec.SampleMismatch {
			t.Fatalf("%s: recovery = %+v, want warm restart", step, rec)
		}
		if ps := sB.PersistStatus(); ps.Degraded != "" {
			t.Fatalf("%s: status degraded: %+v", step, ps)
		}
		compareReports(t, step, got, want)
		compareWitnesses(t, step, got, want)
		if err := sB.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// A store written before boxes and invariants shared netdesc's codec
// must cold start explicitly, with a reason, and restore none of its
// state: neither a version-1 snapshot nor a journal holding a version-1
// box_state record (a firewall in its own "fw" codec).
func TestOldFormatStoreColdStart(t *testing.T) {
	extra := func(d *bench.Datacenter) []incr.Change {
		return []incr.Change{incr.AddInvariant(inv.Reachability{
			Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "extra"})}
	}
	coldStart := func(t *testing.T, dir, reason string) {
		t.Helper()
		_, s, got := newPersistDC(t, persistOpts(dir))
		rec := s.Recovery()
		if !rec.ColdStart || rec.Recovered || !strings.Contains(rec.Reason, reason) {
			t.Fatalf("recovery = %+v, want a cold start because of %q", rec, reason)
		}
		_, _, want := newPersistDC(t, incr.Options{})
		compareReports(t, "cold start", got, want) // the extra invariant is gone
		compareWitnesses(t, "cold start", got, want)
	}

	t.Run("v1-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		d, s, _ := newPersistDC(t, persistOpts(dir))
		if _, err := s.Apply(extra(d)); err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "snapshot.vmn")
		raw, err := store.ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		v1 := bytes.Replace(raw, []byte(`{"version":2,`), []byte(`{"version":1,`), 1)
		if bytes.Equal(v1, raw) {
			t.Fatalf("snapshot does not start with its version: %.40s", raw)
		}
		if err := store.WriteSnapshot(path, v1); err != nil {
			t.Fatal(err)
		}
		coldStart(t, dir, "snapshot version 1")
	})

	t.Run("v1-box-state", func(t *testing.T) {
		dir := t.TempDir()
		d, s, _ := newPersistDC(t, persistOpts(dir))
		if _, err := s.Apply(extra(d)); err != nil {
			t.Fatal(err)
		}
		// Killed after a version-1 daemon journaled a firewall edit.
		seq := s.LastApply().Seq + 1
		j, _, err := store.OpenJournal(filepath.Join(dir, "journal.wal"), store.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		rec := fmt.Sprintf(`{"seq":%d,"changes":[{"op":"box_state","node":"fw1","fw":{"name":"fw1","default_allow":true,"acl":[{"src":"10.0.0.0/24","dst":"10.1.0.0/24"}]}}]}`, seq)
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		coldStart(t, dir, "box_state")
	})
}
