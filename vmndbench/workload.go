package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain is confirmed on it (see README.md).
const heldOutSeed = 20261017

// workload is one seeded input generator plus the vmnd flags that serve
// it. vmnd receives only the generated topology file (if any) and the
// generated request lines.
type workload struct {
	name string
	// flags are the vmnd flags besides -topology and -state-dir.
	flags []string
	// topology, when non-nil, generates the description vmnd serves with
	// -topology; nil serves the built-in network named by flags.
	topology func() *netdesc.Desc
	// builtin builds the in-process twin of the built-in network vmnd
	// serves (same constructor, same invariant set as cmd/vmnd).
	builtin func() (*core.Network, []inv.Invariant)
	// durable runs vmnd with a fresh -state-dir and -fsync always.
	durable bool
	// stream returns the request generator for a seed.
	stream func(seed int64) stepper
	// defect marks a probe that reproduces a known defect: it is not in
	// BENCHMARK.json and its failed requests are expected.
	defect bool
}

// stepper yields the request stream one step at a time. A step is an
// edit and its revert (or one self-contained toggle); runs stop only
// between steps, so every run ends with each failure repaired.
type stepper interface {
	step() [][]byte
}

// change is the wire form of one vmnd change request.
type change struct {
	Op    string `json:"op"`
	Node  string `json:"node"`
	Class string `json:"class,omitempty"`
	Src   string `json:"src,omitempty"`
	Dst   string `json:"dst,omitempty"`
}

func line(c change) []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // a fixed struct of strings always marshals
	}
	return b
}

const (
	vpcTenants = 2048
	vpcShapes  = 4
	dcGroups   = 16
	// cacheGroups is 2, not the 4 of the paper's figure: at 4 groups one
	// request re-solves 16 checks in 2-4.5 s, so a run
	// holds too few requests for a steady median.
	cacheGroups = 2
)

var workloads = []*workload{
	{
		name: "vpc-edit",
		topology: func() *netdesc.Desc {
			return netdesc.CloudVPC(netdesc.VPCConfig{Tenants: vpcTenants, Shapes: vpcShapes, Peerings: 2, CrossChecks: 8})
		},
		durable: true,
		stream:  newVPCStream,
	},
	{
		name:    "dc-failover",
		flags:   []string{"-network", "datacenter", "-groups", fmt.Sprint(dcGroups)},
		builtin: func() (*core.Network, []inv.Invariant) { return datacenter(dcGroups, false) },
		stream: func(seed int64) stepper {
			return &failoverStream{rnd: rand.New(rand.NewSource(seed)), pattern: []string{"p", "p", "p", "b"}}
		},
	},
	{
		name:    "cache-solve",
		flags:   []string{"-network", "datacenter", "-groups", fmt.Sprint(cacheGroups), "-with-caches"},
		builtin: func() (*core.Network, []inv.Invariant) { return datacenter(cacheGroups, true) },
		stream:  newCacheStream,
	},
	{
		// The failover mix with one failure in eight on a ToR switch:
		// each ToR failure answers "explore: no model bound to middlebox
		// fw1" instead of a verdict.
		name:    "dc-failover-tor",
		flags:   []string{"-network", "datacenter", "-groups", fmt.Sprint(dcGroups)},
		builtin: func() (*core.Network, []inv.Invariant) { return datacenter(dcGroups, false) },
		stream: func(seed int64) stepper {
			return &failoverStream{rnd: rand.New(rand.NewSource(seed)), pattern: []string{"p", "p", "p", "p", "p", "b", "b", "t"}}
		},
		defect: true,
	},
	{
		// Switch failures in a k=16 fat-tree answer "explore: middlebox
		// hop bound exceeded at p4-fw" instead of a verdict.
		name:     "fattree-switch",
		topology: func() *netdesc.Desc { return netdesc.FatTree(16, 2) },
		stream:   newFatTreeStream,
		defect:   true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is one workload's generated input: the topology file vmnd
// serves (empty for built-in networks) and a request generator.
type inputs struct {
	topoPath string
	stream   stepper
}

// generate writes the workload's topology file under dir and seeds its
// request stream. The same seed gives byte-identical inputs.
func (w *workload) generate(dir string, seed int64) (*inputs, error) {
	in := &inputs{stream: w.stream(seed)}
	if w.topology == nil {
		return in, nil
	}
	in.topoPath = filepath.Join(dir, w.name+".json")
	if err := netdesc.Save(w.topology(), in.topoPath); err != nil {
		return nil, fmt.Errorf("writing topology: %w", err)
	}
	return in, nil
}

// network builds the workload's initial network in-process: from the
// generated topology file, or with the constructor vmnd uses for its
// built-in network.
func (w *workload) network(in *inputs) (*core.Network, []inv.Invariant, error) {
	if in.topoPath == "" {
		net, invs := w.builtin()
		return net, invs, nil
	}
	_, net, invs, err := netdesc.BuildFile(in.topoPath)
	return net, invs, err
}

// datacenter mirrors vmnd's built-in datacenter: pairwise group
// isolation, plus per-group data isolation with caches.
func datacenter(groups int, withCaches bool) (*core.Network, []inv.Invariant) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: groups, HostsPerGroup: 1, WithCaches: withCaches})
	var invs []inv.Invariant
	for a := 0; a < groups; a++ {
		for b := 0; b < groups; b++ {
			if a != b {
				invs = append(invs, d.IsolationInvariant(a, b))
			}
		}
	}
	if withCaches {
		for g := 0; g < groups; g++ {
			invs = append(invs, d.DataIsolationInvariant(g))
		}
	}
	return d.Net, invs
}

// vpcStream edits tenant security groups, each edit followed by its
// revert. Seven steps in eight add and delete a firewall entry whose
// source (192.168.0.0/16) lies outside every slice, so no group is
// dirtied; the eighth, at a seeded position, moves a tenant VM into a
// fresh policy class and back, which dirties one group that the
// canonical cache answers.
type vpcStream struct {
	rnd      *rand.Rand
	n        int
	relabelK int
	slot     int
}

func newVPCStream(seed int64) stepper {
	return &vpcStream{rnd: rand.New(rand.NewSource(seed))}
}

func (s *vpcStream) step() [][]byte {
	if s.n%8 == 0 {
		s.slot = s.rnd.Intn(8)
	}
	relabel := s.n%8 == s.slot
	s.n++
	t := s.rnd.Intn(vpcTenants)
	half, vm := "0/25", "pub"
	if s.rnd.Intn(2) == 1 {
		half, vm = "128/25", "priv"
	}
	if relabel {
		s.relabelK++
		node := fmt.Sprintf("t%d-%s", t, vm)
		return [][]byte{
			line(change{Op: "relabel", Node: node, Class: fmt.Sprintf("edit%d", s.relabelK)}),
			line(change{Op: "relabel", Node: node, Class: fmt.Sprintf("shape%d-%s", t%vpcShapes, vm)}),
		}
	}
	c := change{
		Op:   "fw_deny",
		Node: fmt.Sprintf("t%d-fw", t),
		Src:  fmt.Sprintf("192.168.%d.0/24", s.rnd.Intn(256)),
		Dst:  fmt.Sprintf("10.%d.%d.%s", t>>8, t&255, half),
	}
	del := c
	del.Op = "fw_del"
	return [][]byte{line(c), line(del)}
}

// failoverStream fails a datacenter element and repairs it. Each block
// of len(pattern) steps takes one element class per pattern entry, in a
// seeded order: "p" a primary-path element (fw1, ids1, agg; every group
// is dirtied and answered from the canonical cache), "b" a backup
// element (fw2, ids2; nothing is dirtied), "t" a ToR switch.
type failoverStream struct {
	rnd     *rand.Rand
	pattern []string
	block   []string
}

func (s *failoverStream) step() [][]byte {
	if len(s.block) == 0 {
		s.block = append([]string(nil), s.pattern...)
		s.rnd.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	var node string
	switch kind {
	case "p":
		node = []string{"fw1", "ids1", "agg"}[s.rnd.Intn(3)]
	case "b":
		node = []string{"fw2", "ids2"}[s.rnd.Intn(2)]
	default:
		node = fmt.Sprintf("tor%d", s.rnd.Intn(dcGroups))
	}
	return [][]byte{
		line(change{Op: "node_down", Node: node}),
		line(change{Op: "node_up", Node: node}),
	}
}

// cacheStream reorders the primary firewall's deny rules. Each step is
// one atomic request that deletes a rule and re-inserts it at the head
// of the ACL; the reordered ACL has not been verified before, so every
// check is solved afresh. Rules are dealt from a shuffled deck, so each
// deck leaves the ACL in a fresh random order. Steps come in blocks of
// five, one of which (at a seeded position) fails a rack cache and
// repairs it instead.
type cacheStream struct {
	rnd     *rand.Rand
	rules   []change // fw_deny form of every initial deny rule
	deck    []int    // rules left to deal
	last    int      // the rule moved to the head last
	n, slot int
}

func newCacheStream(seed int64) stepper {
	d := bench.NewDatacenter(bench.DCConfig{Groups: cacheGroups, HostsPerGroup: 1, WithCaches: true})
	s := &cacheStream{rnd: rand.New(rand.NewSource(seed)), last: -1}
	for _, e := range d.FWPrimary.ACL {
		s.rules = append(s.rules, change{Op: "fw_deny", Node: "fw1",
			Src: netdesc.FormatPrefix(e.Src), Dst: netdesc.FormatPrefix(e.Dst)})
	}
	return s
}

func (s *cacheStream) step() [][]byte {
	if s.n%5 == 0 {
		s.slot = s.rnd.Intn(5)
	}
	cacheStep := s.n%5 == s.slot
	s.n++
	if cacheStep {
		node := fmt.Sprintf("cache%d", s.rnd.Intn(cacheGroups))
		return [][]byte{
			line(change{Op: "node_down", Node: node}),
			line(change{Op: "node_up", Node: node}),
		}
	}
	if len(s.deck) == 0 {
		s.deck = s.rnd.Perm(len(s.rules))
		if s.deck[0] == s.last {
			// Editing the head rule again would revisit verified ACLs.
			s.deck[0], s.deck[len(s.deck)-1] = s.deck[len(s.deck)-1], s.deck[0]
		}
	}
	i := s.deck[0]
	s.deck = s.deck[1:]
	s.last = i
	del := s.rules[i]
	del.Op = "fw_del"
	return [][]byte{[]byte("[" + string(line(del)) + "," + string(line(s.rules[i])) + "]")}
}

// fatTreeStream fails a k=16 fat-tree switch (core, aggregation or
// edge) and repairs it.
type fatTreeStream struct {
	rnd *rand.Rand
}

func newFatTreeStream(seed int64) stepper {
	return &fatTreeStream{rnd: rand.New(rand.NewSource(seed))}
}

func (s *fatTreeStream) step() [][]byte {
	var node string
	switch s.rnd.Intn(3) {
	case 0:
		node = fmt.Sprintf("c%d-%d", s.rnd.Intn(8), s.rnd.Intn(8))
	case 1:
		node = fmt.Sprintf("p%d-a%d", s.rnd.Intn(16), s.rnd.Intn(8))
	default:
		node = fmt.Sprintf("p%d-e%d", s.rnd.Intn(16), s.rnd.Intn(8))
	}
	return [][]byte{
		line(change{Op: "node_down", Node: node}),
		line(change{Op: "node_up", Node: node}),
	}
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
