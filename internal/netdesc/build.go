package netdesc

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/mdl"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Build constructs the verifiable network and invariant set a description
// denotes. baseDir resolves relative MDL bundle references (use the
// description file's directory; "" means the working directory). The
// description is re-validated first, so Build never panics and never
// returns a half-built network: any error leaves nothing constructed.
func Build(d *Desc, baseDir string) (*core.Network, []inv.Invariant, error) {
	if err := d.Validate(""); err != nil {
		return nil, nil, err
	}

	reg := pkt.NewRegistry()
	for _, c := range d.Classes {
		reg.Register(c)
	}

	// MDL bundles load and parse before any topology state exists, so a
	// broken bundle aborts cleanly. Parsed classes are cached per path:
	// many middleboxes typically share one bundle.
	bundles := map[string]*mdl.Class{}
	for i := range d.Nodes {
		b := d.Nodes[i].Box
		if b == nil || b.Type != "mdl" {
			continue
		}
		path := b.Bundle
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		if _, ok := bundles[path]; ok {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, errf("", fmt.Sprintf("nodes[%d].box.bundle", i), "%v", err)
		}
		cls, err := mdl.Parse(string(src))
		if err != nil {
			return nil, nil, &Error{File: path, Field: fmt.Sprintf("nodes[%d].box.bundle", i), Msg: err.Error()}
		}
		bundles[path] = cls
	}

	t := topo.New()
	ids := make(map[string]topo.NodeID, len(d.Nodes))
	policy := map[topo.NodeID]string{}
	var boxes []mbox.Instance
	for i := range d.Nodes {
		n := &d.Nodes[i]
		switch n.Kind {
		case "host":
			id := t.AddHost(n.Name, pkt.MustParseAddr(n.Addr))
			ids[n.Name] = id
			if n.Class != "" {
				policy[id] = n.Class
			}
		case "external":
			id := t.AddExternal(n.Name, pkt.MustParseAddr(n.Addr))
			ids[n.Name] = id
			if n.Class != "" {
				policy[id] = n.Class
			}
		case "switch":
			ids[n.Name] = t.AddSwitch(n.Name)
		case "middlebox":
			model, err := buildModel(n.Name, n.Box, reg, bundles, baseDir, i)
			if err != nil {
				return nil, nil, err
			}
			id := t.AddMiddlebox(n.Name, model.Type())
			ids[n.Name] = id
			boxes = append(boxes, mbox.Instance{Node: id, Model: model})
		}
	}
	for _, l := range d.Links {
		t.AddLink(ids[l[0]], ids[l[1]])
	}

	fib := tf.FIB{}
	for node, rules := range d.FIB {
		id := ids[node]
		for _, r := range rules {
			match, _ := ParsePrefix(r.Match)
			in := topo.NodeNone
			if r.In != "" {
				in = ids[r.In]
			}
			fib.Add(id, tf.Rule{Match: match, In: in, Out: ids[r.Out], Priority: r.Priority})
		}
	}

	if err := t.Validate(); err != nil {
		return nil, nil, &Error{Msg: err.Error()}
	}

	var invs []inv.Invariant
	for i := range d.Invariants {
		iv, err := ResolveInvariant(&d.Invariants[i], t.ByName)
		if err != nil {
			return nil, nil, err
		}
		invs = append(invs, iv)
	}

	net := &core.Network{
		Topo:        t,
		Boxes:       boxes,
		Registry:    reg,
		PolicyClass: policy,
		FIBFor:      func(topo.FailureScenario) tf.FIB { return fib },
	}
	return net, invs, nil
}

// BuildFile loads the description at path and builds it, resolving MDL
// bundles relative to the file.
func BuildFile(path string) (*Desc, *core.Network, []inv.Invariant, error) {
	d, err := Load(path)
	if err != nil {
		return nil, nil, nil, err
	}
	net, invs, err := Build(d, filepath.Dir(path))
	if err != nil {
		if de, ok := err.(*Error); ok && de.File == "" {
			de.File = path
		}
		return nil, nil, nil, err
	}
	return d, net, invs, nil
}

func buildACL(acl []ACLRule) []mbox.ACLEntry {
	var out []mbox.ACLEntry
	for _, e := range acl {
		src, _ := ParsePrefix(e.Src)
		dst, _ := ParsePrefix(e.Dst)
		action := mbox.Allow
		if e.Action == "deny" {
			action = mbox.Deny
		}
		out = append(out, mbox.ACLEntry{Src: src, Dst: dst, Action: action})
	}
	return out
}

// BuildBox validates b and builds its model under the instance name name.
// reg resolves the abstract classes IDPS, scrubber and app-firewall boxes
// consult. An MDL box needs its bundle file, so it builds only as part of
// a description and is rejected here.
func BuildBox(name string, b *Box, reg *pkt.Registry) (mbox.Model, error) {
	if b.Type == "mdl" {
		return nil, errf("", "box.type", "an mdl box builds only from a description file")
	}
	if err := validateBox(b, "", "box"); err != nil {
		return nil, err
	}
	return buildModel(name, b, reg, nil, "", 0)
}

func buildModel(name string, b *Box, reg *pkt.Registry, bundles map[string]*mdl.Class, baseDir string, idx int) (mbox.Model, error) {
	switch b.Type {
	case "firewall":
		return &mbox.LearningFirewall{InstanceName: name, ACL: buildACL(b.ACL), DefaultAllow: b.DefaultAllow}, nil
	case "cache":
		return &mbox.ContentCache{InstanceName: name, ACL: buildACL(b.ACL), DefaultServe: b.DefaultServe}, nil
	case "nat":
		return mbox.NewNAT(name, pkt.MustParseAddr(b.Addr)), nil
	case "idps":
		var scrubber pkt.Addr
		if b.Scrubber != "" {
			scrubber = pkt.MustParseAddr(b.Scrubber)
		}
		var watched []pkt.Prefix
		for _, w := range b.Watched {
			p, _ := ParsePrefix(w)
			watched = append(watched, p)
		}
		return mbox.NewIDPS(name, reg, scrubber, watched...), nil
	case "scrubber":
		return mbox.NewScrubber(name, reg), nil
	case "loadbalancer":
		var backends []pkt.Addr
		for _, be := range b.Backends {
			backends = append(backends, pkt.MustParseAddr(be))
		}
		return mbox.NewLoadBalancer(name, pkt.MustParseAddr(b.VIP), backends...), nil
	case "appfirewall":
		return mbox.NewAppFirewall(name, reg, b.Blocked...), nil
	case "passthrough":
		return mbox.NewPassthrough(name, b.TypeName), nil
	case "wanopt":
		return mbox.NewWANOptimizer(name), nil
	case "mdl":
		path := b.Bundle
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		cfg, err := buildMDLConfig(b.Config)
		if err != nil {
			return nil, errf("", fmt.Sprintf("nodes[%d].box.config", idx), "%v", err)
		}
		model, err := mdl.Instantiate(bundles[path], name, cfg, reg)
		if err != nil {
			return nil, errf("", fmt.Sprintf("nodes[%d].box", idx), "%v", err)
		}
		return model, nil
	}
	// Unreachable: Validate rejected unknown types.
	return nil, errf("", fmt.Sprintf("nodes[%d].box.type", idx), "unknown box type %q", b.Type)
}

// buildMDLConfig converts decoded JSON config values into the Go values
// mdl.Instantiate accepts: dotted-quad strings become addresses, integral
// numbers ints, and arrays sets (of addresses, address pairs, or raw
// string keys).
func buildMDLConfig(raw map[string]any) (mdl.Config, error) {
	cfg := mdl.Config{}
	for k, v := range raw {
		cv, err := configValue(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", k, err)
		}
		cfg[k] = cv
	}
	return cfg, nil
}

func configValue(v any) (any, error) {
	switch x := v.(type) {
	case string:
		if a, err := pkt.ParseAddr(x); err == nil {
			return a, nil
		}
		return nil, fmt.Errorf("string %q is not an address", x)
	case bool:
		return x, nil
	case float64:
		if x != float64(int(x)) {
			return nil, fmt.Errorf("non-integral number %v", x)
		}
		return int(x), nil
	case []any:
		return configSet(x)
	default:
		return nil, fmt.Errorf("unsupported config value of type %T", v)
	}
}

func configSet(xs []any) (any, error) {
	var addrs []pkt.Addr
	var pairs [][2]pkt.Addr
	var keys []string
	for _, e := range xs {
		switch x := e.(type) {
		case string:
			if a, err := pkt.ParseAddr(x); err == nil {
				addrs = append(addrs, a)
			} else {
				keys = append(keys, x)
			}
		case []any:
			if len(x) != 2 {
				return nil, fmt.Errorf("set tuple needs exactly 2 elements, got %d", len(x))
			}
			var pr [2]pkt.Addr
			for i, pe := range x {
				s, ok := pe.(string)
				if !ok {
					return nil, fmt.Errorf("set tuple element of type %T", pe)
				}
				a, err := pkt.ParseAddr(s)
				if err != nil {
					return nil, err
				}
				pr[i] = a
			}
			pairs = append(pairs, pr)
		default:
			return nil, fmt.Errorf("unsupported set element of type %T", e)
		}
	}
	n := 0
	if len(addrs) > 0 {
		n++
	}
	if len(pairs) > 0 {
		n++
	}
	if len(keys) > 0 {
		n++
	}
	if n > 1 {
		return nil, fmt.Errorf("mixed set element kinds")
	}
	switch {
	case len(pairs) > 0:
		return pairs, nil
	case len(keys) > 0:
		return keys, nil
	default:
		return addrs, nil
	}
}

// ResolveInvariant validates w and builds the invariant it denotes. node
// looks a node up by name (topo.Topology.ByName fits); vias must name
// middleboxes. Errors are *Error with Field relative to the invariant
// ("dst", "vias[1]"), and Err set when an address or prefix failed to
// parse. Description files, the vmnd wire, the session journal and its
// snapshots all decode invariants here.
func ResolveInvariant(w *Invariant, node func(string) (topo.Node, bool)) (inv.Invariant, error) {
	dst, ok := node(w.Dst)
	if !ok {
		return nil, &Error{Field: "dst", Msg: fmt.Sprintf("no node named %q", w.Dst)}
	}
	addr := func(field, s string) (pkt.Addr, error) {
		a, err := pkt.ParseAddr(s)
		if err != nil {
			return 0, &Error{Field: field, Msg: err.Error(), Err: err}
		}
		return a, nil
	}
	switch w.Type {
	case "simple_isolation", "flow_isolation", "reachability":
		a, err := addr("src_addr", w.SrcAddr)
		if err != nil {
			return nil, err
		}
		switch w.Type {
		case "simple_isolation":
			return inv.SimpleIsolation{Dst: dst.ID, SrcAddr: a, Label: w.Label}, nil
		case "flow_isolation":
			return inv.FlowIsolation{Dst: dst.ID, SrcAddr: a, Label: w.Label}, nil
		}
		return inv.Reachability{Dst: dst.ID, SrcAddr: a, Label: w.Label}, nil
	case "data_isolation":
		o, err := addr("origin", w.Origin)
		if err != nil {
			return nil, err
		}
		return inv.DataIsolation{Dst: dst.ID, Origin: o, Label: w.Label}, nil
	case "traversal":
		p, err := ParsePrefix(w.SrcPrefix)
		if err != nil {
			return nil, &Error{Field: "src_prefix", Msg: err.Error(), Err: err}
		}
		var srcAddr pkt.Addr
		if w.SrcAddr != "" {
			if srcAddr, err = addr("src_addr", w.SrcAddr); err != nil {
				return nil, err
			}
		}
		if len(w.Vias) == 0 {
			return nil, &Error{Field: "vias", Msg: "traversal needs at least one via"}
		}
		vias := make([]topo.NodeID, len(w.Vias))
		for j, name := range w.Vias {
			n, ok := node(name)
			if !ok {
				return nil, &Error{Field: fmt.Sprintf("vias[%d]", j), Msg: fmt.Sprintf("no node named %q", name)}
			}
			if n.Kind != topo.Middlebox {
				return nil, &Error{Field: fmt.Sprintf("vias[%d]", j), Msg: fmt.Sprintf("via %q is not a middlebox", name)}
			}
			vias[j] = n.ID
		}
		return inv.Traversal{Dst: dst.ID, SrcPrefix: p, SrcAddr: srcAddr, Vias: vias, Label: w.Label}, nil
	}
	return nil, &Error{Field: "type", Msg: fmt.Sprintf("unknown invariant type %q", w.Type)}
}
