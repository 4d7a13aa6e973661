package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// streamBytes generates a workload's inputs for seed and returns the
// topology file and the first n request lines, newline-joined.
func streamBytes(t *testing.T, w *workload, seed int64, n int) (topology, requests []byte) {
	t.Helper()
	dir := t.TempDir()
	in, err := w.generate(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	if in.topoPath != "" {
		if topology, err = os.ReadFile(in.topoPath); err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(in.topoPath) != dir {
			t.Fatalf("topology written outside the run directory: %s", in.topoPath)
		}
	}
	var buf bytes.Buffer
	for sent := 0; sent < n; {
		for _, r := range in.stream.step() {
			buf.Write(r)
			buf.WriteByte('\n')
			sent++
		}
	}
	return topology, buf.Bytes()
}

// TestGeneratorDeterministic: the same seed gives byte-identical inputs,
// another seed gives another request stream.
func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, heldOutSeed} {
			topo1, reqs1 := streamBytes(t, w, seed, 500)
			topo2, reqs2 := streamBytes(t, w, seed, 500)
			if !bytes.Equal(topo1, topo2) {
				t.Errorf("%s seed %d: topology files differ between two generations", w.name, seed)
			}
			if !bytes.Equal(reqs1, reqs2) {
				t.Errorf("%s seed %d: request streams differ between two generations", w.name, seed)
			}
		}
		_, a := streamBytes(t, w, 1, 500)
		_, b := streamBytes(t, w, 2, 500)
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same request stream", w.name)
		}
	}
}
