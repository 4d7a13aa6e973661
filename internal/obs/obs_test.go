package obs

import (
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// The nil-is-disabled contract: every call on nil handles is a no-op.
	var o *Obs
	sp := o.Span("root")
	if sp.Enabled() {
		t.Fatal("span from nil Obs must be disabled")
	}
	sp.Child("c").Label("x").End()
	sp.End()

	var r *Registry
	r.Counter("c").Add(1)
	r.RegisterCounterFunc("cf", func() int64 { return 7 })
	r.Histogram("h", LatencyBuckets).Observe(0.5)
	r.RegisterFunc("f", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshots nil")
	}
	var tr *Tracer
	if got := tr.Drain(); got != nil {
		t.Fatal("nil tracer drains nil")
	}
}

func TestSpanTreeAndDrain(t *testing.T) {
	o := New(16)
	root := o.Span("apply")
	child := root.Child("solve").Label("class=0")
	child.End()
	root.End()

	spans := o.Trace.Drain()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	// Children end first (record order is end order).
	if spans[0].Name != "solve" || spans[1].Name != "apply" {
		t.Fatalf("unexpected record order: %+v", spans)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child should link to root: %+v", spans)
	}
	if spans[0].Label != "class=0" {
		t.Fatalf("label lost: %+v", spans[0])
	}
	if spans[0].DurationNs < 0 || spans[0].StartNs < spans[1].StartNs {
		t.Fatalf("timestamps inconsistent: %+v", spans)
	}
	if got := o.Trace.Drain(); len(got) != 0 {
		t.Fatalf("drain must clear the ring, got %d spans", len(got))
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	o := &Obs{Trace: tr}
	for i := 0; i < 10; i++ {
		o.Span("s").End()
	}
	spans := tr.Drain()
	if len(spans) != 4 {
		t.Fatalf("ring capacity 4, got %d spans", len(spans))
	}
	// The survivors are the newest four, in order.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID != spans[i-1].ID+1 {
			t.Fatalf("ring order broken: %+v", spans)
		}
	}
	if spans[len(spans)-1].ID != 10 {
		t.Fatalf("newest span must survive, got ID %d", spans[len(spans)-1].ID)
	}
}

func TestRegistrySnapshotAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("vmn_test_total").Add(3)
	r.RegisterCounterFunc("vmn_test_func_total", func() int64 { return 9 })
	r.RegisterFunc("vmn_test_func", func() float64 { return 2.5 })
	h := r.Histogram("vmn_test_size", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	snap := r.Snapshot()
	if snap["vmn_test_total"] != 3 || snap["vmn_test_func_total"] != 9 || snap["vmn_test_func"] != 2.5 {
		t.Fatalf("scalar snapshot wrong: %v", snap)
	}
	// Cumulative buckets: ≤1: 1, ≤2: 1, ≤4: 2; count 3; sum 104.
	if snap["vmn_test_size_le_1"] != 1 || snap["vmn_test_size_le_2"] != 1 || snap["vmn_test_size_le_4"] != 2 {
		t.Fatalf("histogram buckets wrong: %v", snap)
	}
	if snap["vmn_test_size_count"] != 3 || snap["vmn_test_size_sum"] != 104 {
		t.Fatalf("histogram sum/count wrong: %v", snap)
	}

	// Idempotent registration: same instances by name.
	if r.Counter("vmn_test_total").Value() != 3 {
		t.Fatal("re-registration must return the same counter")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE vmn_test_total counter",
		"vmn_test_total 3",
		"# TYPE vmn_test_func_total counter",
		"vmn_test_func_total 9",
		"# TYPE vmn_test_func gauge",
		"vmn_test_func 2.5",
		`vmn_test_size_bucket{le="4"} 2`,
		`vmn_test_size_bucket{le="+Inf"} 3`,
		"vmn_test_size_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}
