package incr_test

// Kill-mid-churn differential harness: a persist-enabled session is
// SIGKILLed (abandoned without Shutdown, with a torn half-record
// appended to its journal — the worst in-flight write a real kill can
// leave) at various points of a deterministic change stream, restarted
// from the state directory, and driven through the remainder of the
// stream. Every verdict and witness — at recovery and at every
// subsequent step — must be bit-identical to an uninterrupted session
// that never persisted anything. Runs under both dirtying
// granularities; `make race` covers it with the race detector.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
)

const crashSteps = 9

// crashChanges is the deterministic change stream: step k's change-set
// is a pure function of (datacenter, k), so independently constructed
// lanes stay in lockstep. It cycles through every durable change kind —
// liveness toggles, firewall and IDPS reconfiguration (absolute state,
// not a delta, so replay from any prefix converges), relabels, and
// invariant add/remove.
func crashChanges(d *bench.Datacenter, k int) []incr.Change {
	t := d.Net.Topo
	host := func(g int) pkt.Addr { return t.Node(d.Hosts[g%3][0]).Addr }
	switch k % 7 {
	case 0:
		return []incr.Change{incr.NodeDown(d.Hosts[(k/7)%3][0])}
	case 1: // mirror of case 0 at k-1
		return []incr.Change{incr.NodeUp(d.Hosts[((k-1)/7)%3][0])}
	case 2:
		fw := &mbox.LearningFirewall{
			InstanceName: "fw1",
			DefaultAllow: true,
			ACL: []mbox.ACLEntry{
				mbox.DenyEntry(pkt.HostPrefix(host(k)), pkt.HostPrefix(host(k+1))),
				mbox.DenyEntry(pkt.HostPrefix(host(k+1)), pkt.HostPrefix(host(k))),
			},
		}
		return []incr.Change{incr.BoxSwap(d.FW1, fw)}
	case 3:
		return []incr.Change{incr.Relabel(d.Hosts[(k+1)%3][0], fmt.Sprintf("churn-%d", k))}
	case 4:
		return []incr.Change{incr.AddInvariant(inv.Reachability{
			Dst: d.Hosts[2][0], SrcAddr: host(0), Label: fmt.Sprintf("p%d", k),
		})}
	case 5: // remove the invariant case 4 added at k-1
		return []incr.Change{incr.RemoveInvariant(fmt.Sprintf("p%d", k-1))}
	default: // case 6: a non-firewall box, ids1 watching another group
		ids := mbox.NewIDPS("ids1", d.Net.Registry, pkt.AddrNone, pkt.HostPrefix(host(k)))
		return []incr.Change{incr.BoxSwap(d.IDS1, ids)}
	}
}

func TestCrashMidChurnRecovers(t *testing.T) {
	opts := core.Options{Engine: core.EngineSAT}
	for _, nodeGran := range []bool{false, true} {
		for _, kill := range []int{0, 2, 5, 8} {
			t.Run(fmt.Sprintf("gran=%v/kill=%d", nodeGran, kill), func(t *testing.T) {
				t.Parallel()

				// Lane U: the uninterrupted reference, no persistence.
				dU := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
				sU, uCur, err := incr.NewSession(dU.Net, opts, dU.AllIsolationInvariants(),
					incr.Options{NodeGranularity: nodeGran})
				if err != nil {
					t.Fatal(err)
				}

				// Lane A: persist-enabled, killed after `kill` steps.
				dir := t.TempDir()
				popts := incr.Options{NodeGranularity: nodeGran,
					Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: 3}}
				dA := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
				sA, repA, err := incr.NewSession(dA.Net, opts, dA.AllIsolationInvariants(), popts)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, "init", repA, uCur)

				for k := 0; k < kill; k++ {
					uCur, err = sU.Apply(crashChanges(dU, k))
					if err != nil {
						t.Fatalf("lane U step %d: %v", k, err)
					}
					got, dup, err := sA.ApplyID(fmt.Sprintf("req-%d", k), crashChanges(dA, k))
					if err != nil || dup {
						t.Fatalf("lane A step %d: dup=%v err=%v", k, dup, err)
					}
					step := fmt.Sprintf("pre-kill step %d", k)
					compareReports(t, step, got, uCur)
					compareWitnesses(t, step, got, uCur)
				}

				if ps := sA.PersistStatus(); ps.Degraded != "" {
					t.Fatalf("lane A stopped persisting: %+v", ps)
				}

				// SIGKILL: abandon lane A without Shutdown, and leave the
				// torn half-record an in-flight append would have left.
				f, err := os.OpenFile(filepath.Join(dir, "journal.wal"),
					os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				f.Close()
				_ = sA // dead from here on

				// Lane B: restart from the state directory.
				dB := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
				sB, repB, err := incr.NewSession(dB.Net, opts, dB.AllIsolationInvariants(), popts)
				if err != nil {
					t.Fatal(err)
				}
				rec := sB.Recovery()
				if !rec.Recovered || rec.ColdStart {
					t.Fatalf("recovery = %+v, want warm restart", rec)
				}
				if rec.SampleMismatch {
					t.Fatalf("restored verdicts failed re-verification: %+v", rec)
				}
				compareReports(t, "recovery", repB, uCur)
				compareWitnesses(t, "recovery", repB, uCur)

				if kill > 0 {
					// An at-least-once client replaying its last unacked
					// request must get the current verdicts, not a re-apply.
					id := fmt.Sprintf("req-%d", kill-1)
					got, dup, err := sB.ApplyID(id, crashChanges(dB, kill-1))
					if err != nil || !dup {
						t.Fatalf("replayed %s: dup=%v err=%v", id, dup, err)
					}
					compareReports(t, "replayed "+id, got, uCur)
				}

				for k := kill; k < crashSteps; k++ {
					uCur, err = sU.Apply(crashChanges(dU, k))
					if err != nil {
						t.Fatalf("lane U step %d: %v", k, err)
					}
					got, dup, err := sB.ApplyID(fmt.Sprintf("req-%d", k), crashChanges(dB, k))
					if err != nil || dup {
						t.Fatalf("lane B step %d: dup=%v err=%v", k, dup, err)
					}
					step := fmt.Sprintf("post-restart step %d", k)
					compareReports(t, step, got, uCur)
					compareWitnesses(t, step, got, uCur)
				}
				if ps := sB.PersistStatus(); ps.Degraded != "" {
					t.Fatalf("lane B stopped persisting: %+v", ps)
				}
			})
		}
	}
}
