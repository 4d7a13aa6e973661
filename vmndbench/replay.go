package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/store"
)

// benchSpan is one span the benchmark records around a call into a
// layer. Spans of one request share Req; Parent names the enclosing
// layer ("" for the request itself).
type benchSpan struct {
	Req     int    `json:"req"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// traceLog keeps spans in memory for the whole run; write puts them out
// at the end, together with the spans the session recorded itself.
type traceLog struct {
	epoch   time.Time
	spans   []benchSpan
	session []sessionSpans
}

type sessionSpans struct {
	Req   int              `json:"req"`
	Spans []obs.SpanRecord `json:"spans"`
}

func (t *traceLog) record(req int, layer, parent string, start, end time.Time) {
	t.spans = append(t.spans, benchSpan{req, layer, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
}

func (t *traceLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.session {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals accumulates per-layer work over the timed requests.
type layerTotals struct {
	reqs                                      int
	decode, apply, applySelf, dirty, prescrn  time.Duration
	canon, classBusy, install, persist, encOp time.Duration
	coreEncode, coreSolve, reqWall            time.Duration
	reports, changedReports                   int
	encodeAlloc, applyAlloc                   uint64
	groups, dirtyGroups, refinedClean         int
	dirtyClasses, solves, hits                int
	journalBytes                              int64
	snapshots                                 int
	gcCycles                                  uint32
}

// runReplay replays the same seeded inputs through the daemon's request
// path in-process, timing each layer, and reports the per-layer figures.
func runReplay(c runConfig) (*outcome, error) {
	if err := freshDir(c.dir()); err != nil {
		return nil, err
	}
	in, err := c.w.generate(c.dir(), c.seed)
	if err != nil {
		return nil, err
	}
	log := &traceLog{epoch: time.Now()}
	o := &outcome{metrics: map[string]metric{}}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	// Setup, split the way vmnd does it.
	var (
		net  *core.Network
		invs []inv.Invariant
	)
	var decodeT, buildT time.Duration
	if in.topoPath != "" {
		t0 := time.Now()
		d, err := netdesc.Load(in.topoPath)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if net, invs, err = netdesc.Build(d, filepath.Dir(in.topoPath)); err != nil {
			return nil, err
		}
		t2 := time.Now()
		decodeT, buildT = t1.Sub(t0), t2.Sub(t1)
		log.record(0, "netdesc.decode", "setup", t0, t1)
		log.record(0, "netdesc.build", "setup", t1, t2)
	} else {
		net, invs = c.w.builtin()
	}
	ob := obs.New(1 << 16)
	sopts := incr.Options{Obs: ob}
	if c.w.durable {
		stateDir := filepath.Join(c.dir(), "state")
		if err := freshDir(stateDir); err != nil {
			return nil, err
		}
		sopts.Persist = &incr.PersistOptions{Dir: stateDir, Sync: store.SyncAlways, SnapshotEvery: 64, RecoverySample: 2}
	}
	t0 := time.Now()
	sess, reports, err := incr.NewSession(net, core.Options{}, invs, sopts)
	if err != nil {
		return nil, err
	}
	log.record(0, "incr.new_session", "setup", t0, time.Now())
	newSessionT := time.Since(t0)
	ob.Trace.Drain()
	prev := reportVerdicts(net.Topo, reports)

	var (
		tot    layerTotals
		sent   [][]byte
		counts []string
	)
	canonClasses0, _, encTranslated0 := sess.CanonStats()
	solver0 := sess.SolverStats()
	ps := sess.PersistStatus()
	var mem runtime.MemStats

	handle := func(req []byte, timed bool) error {
		n := len(sent) + 1
		sent = append(sent, req)
		runtime.ReadMemStats(&mem)
		gc0, alloc0 := mem.NumGC, mem.TotalAlloc
		tReq := time.Now()
		if _, _, err := incr.ParseRequest(req); err != nil {
			return err
		}
		changes, err := incr.DecodeChangeSet(net, req)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", req, err)
		}
		tDec := time.Now()
		reports, _, applyErr := sess.ApplyID("", changes)
		tApp := time.Now()
		runtime.ReadMemStats(&mem)
		alloc1 := mem.TotalAlloc
		tEnc0 := time.Now()
		var resp any
		if applyErr != nil {
			resp = incr.WireError{Seq: sess.LastApply().Seq, Error: applyErr.Error()}
		} else {
			resp = incr.EncodeResult(net.Topo, sess.LastApply(), reports)
		}
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		tEnc := time.Now()
		runtime.ReadMemStats(&mem)
		spans := ob.Trace.Drain()
		log.record(n, "request", "", tReq, tEnc)
		log.record(n, "vmnd.decode", "request", tReq, tDec)
		log.record(n, "incr.apply_id", "request", tDec, tApp)
		log.record(n, "vmnd.encode", "request", tEnc0, tEnc)
		log.session = append(log.session, sessionSpans{n, spans})

		st := sess.LastApply()
		count := fmt.Sprintf("%d/%d", st.DirtyGroups, st.CacheMisses)
		if applyErr != nil {
			count = "err"
			o.failed++
		}
		if len(counts) < countPrefix {
			counts = append(counts, count)
		}
		ps1 := sess.PersistStatus()
		journal := ps1.JournalBytes - ps.JournalBytes
		if journal < 0 { // compacted into a snapshot: only the new tail was appended
			journal = ps1.JournalBytes
		}
		snap := ps1.SnapshotSeq != ps.SnapshotSeq
		ps = ps1
		if !timed {
			canonClasses0, _, encTranslated0 = sess.CanonStats()
			solver0 = sess.SolverStats()
			if applyErr == nil {
				prev = reportVerdicts(net.Topo, reports)
			}
			return nil
		}
		tot.reqs++
		tot.reqWall += tEnc.Sub(tReq)
		tot.decode += tDec.Sub(tReq)
		tot.encOp += tEnc.Sub(tEnc0)
		tot.encodeAlloc += mem.TotalAlloc - alloc1
		tot.applyAlloc += alloc1 - alloc0
		tot.gcCycles += mem.NumGC - gc0
		tot.journalBytes += journal
		if snap {
			tot.snapshots++
		}
		var applySpan time.Duration
		for _, sp := range spans {
			d := time.Duration(sp.DurationNs)
			switch sp.Name {
			case "apply":
				applySpan = d
				tot.applySelf += selfTime(sp, spans)
			case "dirty":
				tot.dirty += d
			case "atom-prescreen":
				tot.prescrn += d
			case "canonicalize":
				tot.canon += d
			case "class":
				tot.classBusy += d
			case "cache-install":
				tot.install += d
			case "encode":
				tot.coreEncode += d
			case "solve":
				tot.coreSolve += d
			}
		}
		tot.apply += applySpan
		if applyErr == nil {
			tot.persist += tApp.Sub(tDec) - applySpan
			cur := reportVerdicts(net.Topo, reports)
			tot.reports += len(cur)
			for i := range cur {
				if i >= len(prev) || !sameVerdict(cur[i], prev[i]) {
					tot.changedReports++
				}
			}
			prev = cur
			tot.groups += st.Groups
			tot.dirtyGroups += st.DirtyGroups
			tot.refinedClean += st.RefinedClean
			tot.dirtyClasses += st.DirtyClasses
			tot.solves += st.CacheMisses
			tot.hits += st.CacheHits
		}
		return nil
	}

	for len(sent) < warmupReqs {
		for _, r := range in.stream.step() {
			if err := handle(r, false); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for time.Since(start) < c.seconds || len(sent) < countPrefix {
		for _, r := range in.stream.step() {
			if err := handle(r, true); err != nil {
				return nil, err
			}
		}
	}
	canonClasses1, _, encTranslated1 := sess.CanonStats()
	solver1 := sess.SolverStats()
	final := reportVerdicts(net.Topo, sess.CurrentReports())
	if err := sess.Shutdown(); err != nil {
		return nil, err
	}

	o.attempted = len(sent)
	o.problems = append(o.problems, checkCounts(c, counts)...)
	want, err := oracleVerdicts(c.w, in, sent)
	if err != nil {
		return nil, err
	}
	for _, diff := range compareVerdicts(final, want) {
		o.problems = append(o.problems, "final verdicts: "+diff)
	}
	tracePath := filepath.Join(c.work, fmt.Sprintf("trace-%s-seed%d.ndjson", c.w.name, c.seed))
	if err := log.write(tracePath); err != nil {
		return nil, err
	}

	r := float64(tot.reqs)
	per := func(d time.Duration) float64 { return ms(d) / r }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	solves := float64(tot.solves)
	perSolve := func(x int64) float64 {
		if solves == 0 {
			return 0
		}
		return float64(x) / solves
	}
	m := o.metrics
	m["netdesc.decode_ms"] = metric{ms(decodeT), "ms"}
	m["netdesc.build_ms"] = metric{ms(buildT), "ms"}
	m["incr.new_session_ms"] = metric{ms(newSessionT), "ms"}
	m["trace.req_ms"] = metric{per(tot.reqWall), "ms"}
	m["vmnd.decode_us"] = metric{per(tot.decode) * 1e3, "us"}
	m["vmnd.encode_ms"] = metric{per(tot.encOp), "ms"}
	m["vmnd.resp_reports"] = metric{float64(tot.reports) / r, "count"}
	m["vmnd.changed_report_frac"] = metric{ratio(tot.changedReports, tot.reports), "ratio"}
	m["vmnd.alloc_kb_per_req"] = metric{float64(tot.encodeAlloc) / 1024 / r, "KiB"}
	m["incr.apply_ms"] = metric{per(tot.apply), "ms"}
	m["incr.apply_self_ms"] = metric{per(tot.applySelf), "ms"}
	m["incr.dirty_ms"] = metric{per(tot.dirty), "ms"}
	m["incr.prescreen_ms"] = metric{per(tot.prescrn), "ms"}
	m["incr.canonicalize_ms"] = metric{per(tot.canon), "ms"}
	m["incr.class_busy_ms"] = metric{per(tot.classBusy), "ms"}
	m["incr.install_ms"] = metric{per(tot.install), "ms"}
	m["incr.dirty_frac"] = metric{ratio(tot.dirtyGroups, tot.groups), "ratio"}
	m["incr.refined_clean_frac"] = metric{ratio(tot.refinedClean, tot.groups), "ratio"}
	m["incr.dirty_classes_per_req"] = metric{float64(tot.dirtyClasses) / r, "count"}
	m["incr.solves_per_req"] = metric{solves / r, "count"}
	m["incr.cache_hit_ratio"] = metric{ratio(tot.hits, tot.hits+tot.solves), "ratio"}
	m["incr.alloc_mb_per_apply"] = metric{float64(tot.applyAlloc) / (1 << 20) / r, "MiB"}
	m["store.persist_ms"] = metric{per(tot.persist), "ms"}
	m["store.journal_bytes_per_req"] = metric{float64(tot.journalBytes) / r, "B"}
	m["store.snapshots_per_req"] = metric{float64(tot.snapshots) / r, "count"}
	m["core.encode_ms"] = metric{per(tot.coreEncode), "ms"}
	m["core.solve_ms"] = metric{per(tot.coreSolve), "ms"}
	m["core.canon_classes_per_req"] = metric{float64(canonClasses1-canonClasses0) / r, "count"}
	m["core.enc_translated_per_req"] = metric{float64(encTranslated1-encTranslated0) / r, "count"}
	m["sat.conflicts_per_solve"] = metric{perSolve(solver1.Conflicts - solver0.Conflicts), "count"}
	m["sat.decisions_per_solve"] = metric{perSolve(solver1.Decisions - solver0.Decisions), "count"}
	m["go.gc_cycles_per_req"] = metric{float64(tot.gcCycles) / r, "count"}

	o.notes = append(o.notes,
		fmt.Sprintf("timed requests: %d (after %d warm-up)", tot.reqs, len(sent)-tot.reqs),
		"spans written to "+tracePath)
	return o, nil
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (children may overlap: class spans run on
// several workers at once).
func selfTime(parent obs.SpanRecord, spans []obs.SpanRecord) time.Duration {
	pStart, pEnd := parent.StartNs, parent.StartNs+parent.DurationNs
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != parent.ID {
			continue
		}
		a, b := max(s.StartNs, pStart), min(s.StartNs+s.DurationNs, pEnd)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	end := pStart
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			covered += v.b - v.a
		} else {
			covered += v.b - end
		}
		end = v.b
	}
	return time.Duration(parent.DurationNs - covered)
}
