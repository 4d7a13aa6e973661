package incr_test

import (
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
)

func TestWireDecodeAndApply(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	lines := []string{
		`{"op":"node_down","node":"fw1"}`,
		`[{"op":"fw_del","node":"fw2","src":"10.0.0.0/24","dst":"10.1.0.0/24"},
		  {"op":"relabel","node":"h0-0","class":"broken-0"},
		  {"op":"relabel","node":"h1-0","class":"broken-1"}]`,
		`{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"leak?"}}`,
		`{"op":"noop"}`,
		`{"op":"node_up","node":"fw1"}`,
		`{"op":"inv_remove","name":"leak?"}`,
	}
	for _, line := range lines {
		changes, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		reports, err := sess.Apply(changes)
		if err != nil {
			t.Fatalf("apply %q: %v", line, err)
		}
		res := incr.EncodeResult(d.Net.Topo, sess.LastApply(), reports)
		if len(res.Reports) != len(reports) {
			t.Fatalf("encoded %d reports, want %d", len(res.Reports), len(reports))
		}
		compareReports(t, line, reports, baseline(t, sess, core.Options{Engine: core.EngineSAT}, true))
	}

	// The fw_del line must have removed the entry from fw2 only; with fw1
	// back up the primary still enforces, but under fw1 failure the leak
	// shows. Sanity-check via the firewall model itself.
	if d.FWBackup.Allowed(bench.HostAddr(0, 0), bench.HostAddr(1, 0)) != true {
		t.Fatal("fw_del should have opened g0->g1 on the backup")
	}
	if d.FWPrimary.Allowed(bench.HostAddr(0, 0), bench.HostAddr(1, 0)) {
		t.Fatal("primary firewall must still deny g0->g1")
	}
}

func TestWireDecodeErrors(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	bad := []string{
		`{"op":"node_down","node":"nope"}`,
		`{"op":"frobnicate"}`,
		`{"op":"fw_del","node":"ids1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`, // not a firewall
		`{"op":"inv_add","invariant":{"type":"weird","dst":"h0-0"}}`,
		`{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","vias":[]}}`,
		`{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","vias":["h0-0"]}}`,
		`{"op":"fw_deny","node":"fw1","src":"999.0.0.0/24","dst":"*"}`,
		`not json at all`,
	}
	for _, line := range bad {
		if _, err := incr.DecodeChangeSet(d.Net, []byte(line)); err == nil {
			t.Fatalf("decode %q should have failed", line)
		}
	}
	// Unknown invariant names and empty lines are fine.
	if chs, err := incr.DecodeChangeSet(d.Net, []byte("   ")); err != nil || len(chs) != 0 {
		t.Fatalf("blank line: %v %v", chs, err)
	}
}

func TestWireInvariantRoundTrip(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	cases := []struct {
		json string
		want inv.Invariant
	}{
		{`{"type":"simple_isolation","dst":"h1-0","src_addr":"10.0.0.1","label":"l"}`,
			inv.SimpleIsolation{Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "l"}},
		{`{"type":"data_isolation","dst":"h0-0","origin":"10.1.0.1"}`,
			inv.DataIsolation{Dst: d.Hosts[0][0], Origin: bench.HostAddr(1, 0)}},
	}
	for _, c := range cases {
		line := `{"op":"inv_add","invariant":` + c.json + `}`
		chs, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if len(chs) != 1 || chs[0].Invariant.Name() != c.want.Name() {
			t.Fatalf("decoded %v, want %v", chs[0].Invariant, c.want)
		}
	}
	// Traversal separately (Vias are node IDs).
	line := `{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","src_addr":"10.0.0.1","vias":["ids1","ids2"]}}`
	chs, err := incr.DecodeChangeSet(d.Net, []byte(line))
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := chs[0].Invariant.(inv.Traversal)
	if !ok || len(tr.Vias) != 2 || tr.Vias[0] != d.IDS1 || tr.Vias[1] != d.IDS2 {
		t.Fatalf("traversal decoded wrong: %+v", chs[0].Invariant)
	}
	if !strings.Contains(tr.SrcPrefix.String(), "/24") {
		t.Fatalf("prefix decoded wrong: %v", tr.SrcPrefix)
	}
}
