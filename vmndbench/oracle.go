package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/topo"
)

// verdict is one report as the correctness gate compares it: which
// invariant under which failure scenario, and what was concluded.
type verdict struct {
	invariant string
	scenario  string // failed node names
	outcome   string
	satisfied bool
}

func (v verdict) key() string { return v.invariant + "@" + v.scenario }

// sameVerdict reports whether two reports of one invariant reach the
// same conclusion (whatever the scenario they were verified under).
func sameVerdict(a, b verdict) bool {
	return a.invariant == b.invariant && a.outcome == b.outcome && a.satisfied == b.satisfied
}

// wireVerdicts extracts the verdicts of one vmnd result line.
func wireVerdicts(resp []byte) ([]verdict, error) {
	var r struct {
		Error   string `json:"error"`
		Reports []struct {
			Invariant string   `json:"invariant"`
			Scenario  []string `json:"scenario"`
			Outcome   string   `json:"outcome"`
			Satisfied bool     `json:"satisfied"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return nil, fmt.Errorf("final response does not parse: %w", err)
	}
	if r.Error != "" {
		return nil, fmt.Errorf("final response is an error: %s", r.Error)
	}
	out := make([]verdict, 0, len(r.Reports))
	for _, w := range r.Reports {
		out = append(out, verdict{w.Invariant, strings.Join(w.Scenario, ","), w.Outcome, w.Satisfied})
	}
	return out, nil
}

// reportVerdicts extracts the verdicts of in-process reports.
func reportVerdicts(t *topo.Topology, reports []core.Report) []verdict {
	out := make([]verdict, 0, len(reports))
	for _, r := range reports {
		var scen []string
		for _, n := range r.Scenario.Nodes() {
			scen = append(scen, t.Node(n).Name)
		}
		out = append(out, verdict{r.Invariant.Name(), strings.Join(scen, ","), r.Result.Outcome.String(), r.Satisfied})
	}
	return out
}

// oracleVerdicts is the correctness gate's reference: it rebuilds the
// workload's initial network from the generated inputs, applies every
// sent change directly to it (no incremental session), and verifies the
// final state from scratch with core.VerifyAll.
func oracleVerdicts(w *workload, in *inputs, sent [][]byte) ([]verdict, error) {
	net, invs, err := w.network(in)
	if err != nil {
		return nil, fmt.Errorf("oracle: building network: %w", err)
	}
	down := map[topo.NodeID]bool{}
	for _, l := range sent {
		// Firewall edits are applied to the network in place here.
		changes, err := incr.DecodeChangeSet(net, l)
		if err != nil {
			return nil, fmt.Errorf("oracle: decoding %s: %w", l, err)
		}
		for _, ch := range changes {
			switch ch.Kind {
			case incr.KindNodeDown:
				down[ch.Node] = true
			case incr.KindNodeUp:
				delete(down, ch.Node)
			case incr.KindRelabel:
				if net.PolicyClass == nil {
					net.PolicyClass = map[topo.NodeID]string{}
				}
				if ch.Class == "" {
					delete(net.PolicyClass, ch.Node)
				} else {
					net.PolicyClass[ch.Node] = ch.Class
				}
			case incr.KindBoxReconfig:
			default:
				return nil, fmt.Errorf("oracle: unsupported change kind %v in %s", ch.Kind, l)
			}
		}
	}
	scen := topo.NoFailures()
	if len(down) > 0 {
		var nodes []topo.NodeID
		for n := range down {
			nodes = append(nodes, n)
		}
		scen = topo.Failures(nodes...)
	}
	v, err := core.NewVerifier(net, core.Options{Scenarios: []topo.FailureScenario{scen}})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	reports, err := v.VerifyAll(invs, true)
	if err != nil {
		return nil, fmt.Errorf("oracle: verifying: %w", err)
	}
	return reportVerdicts(net.Topo, reports), nil
}

// compareVerdicts lists the differences between got and want (at most a
// few, plus a count); empty means they agree.
func compareVerdicts(got, want []verdict) []string {
	var diffs []string
	if len(got) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%d reports, oracle has %d", len(got), len(want)))
	}
	ref := make(map[string]verdict, len(want))
	for _, v := range want {
		ref[v.key()] = v
	}
	var bad []string
	for _, g := range got {
		w, ok := ref[g.key()]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: not in oracle", g.key()))
		case g.outcome != w.outcome || g.satisfied != w.satisfied:
			bad = append(bad, fmt.Sprintf("%s: %s/%v, oracle %s/%v", g.key(), g.outcome, g.satisfied, w.outcome, w.satisfied))
		}
	}
	sort.Strings(bad)
	if len(bad) > 5 {
		bad = append(bad[:5], fmt.Sprintf("... %d mismatches in all", len(bad)))
	}
	return append(diffs, bad...)
}
