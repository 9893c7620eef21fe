package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"deact/internal/resultstore"
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timedRun measures the end-to-end metrics with no profiler running.
func timedRun(w *workload, o options, tmp string) (*report, error) {
	ctx := context.Background()
	rep := &report{chk: newChecker()}
	setup, err := measureSetup(w, o)
	if err != nil {
		return nil, err
	}
	b := newBench(w, o.seed, tmp, rep.chk)
	b.prepare(ctx)
	if err := b.loop(ctx, seconds(o.seconds)); err != nil {
		return nil, err
	}
	b.repeatFirst(ctx)
	endToEnd(rep, b, setup)
	return rep, nil
}

// endToEnd adds the end-to-end metrics: set-up time from the probes, and
// the host-time and memory metrics of b's timed units (one run, or one
// cold sweep pass). Times are medians over units, scaled to the reference
// host speed (calib.go); bytes are interquartile means, since they vary
// with each unit's input alone and a median over a few skewed values
// jumps between them.
func endToEnd(rep *report, b *bench, setup []float64) {
	var wall, kips, nsPerEvent, alloc, rss []float64
	for _, u := range b.units {
		s := u.wall.Seconds()
		wall = append(wall, s)
		kips = append(kips, float64(u.instrs)/1e3/s)
		nsPerEvent = append(nsPerEvent, float64(u.wall.Nanoseconds())/float64(u.events))
		alloc = append(alloc, float64(u.alloc)/1e6)
		rss = append(rss, u.rssMB)
	}
	n := len(b.units)
	scale := 1.0
	if c := median(b.cals); c > 0 {
		scale = refCalibration.Seconds() / c
	}
	rep.extra = append(rep.extra, fmt.Sprintf("calibration kernel %.3f ms (median of %d; reference %v): "+
		"times below are scaled by %.4f; unscaled setup_s=%.6g wall_s=%.6g sim_kips=%.6g host_ns_per_event=%.6g",
		median(b.cals)*1e3, len(b.cals), refCalibration, scale, median(setup), median(wall), median(kips),
		median(nsPerEvent)))
	rep.add("setup_s", "s", median(setup)*scale, len(setup))
	rep.add("wall_s", "s", median(wall)*scale, n)
	rep.add("sim_kips", "kinstr/s", median(kips)/scale, n)
	rep.add("host_ns_per_event", "ns", median(nsPerEvent)*scale, n)
	rep.add("alloc_mb", "MB", midMean(alloc), n)
	rep.add("max_rss_mb", "MB", midMean(rss), n)
}

// tracedRun times the workload for half the budget untraced and for half
// under the CPU and heap profilers, on the same inputs, and reports the
// per-layer metrics of the traced half with its overhead against the
// untraced one.
func tracedRun(w *workload, o options, tmp string) (*report, error) {
	ctx := context.Background()
	rep := &report{chk: newChecker()}
	budget := seconds(o.seconds) / 2

	base := newBench(w, o.seed, tmp, rep.chk)
	base.prepare(ctx)
	if err := base.loop(ctx, budget); err != nil {
		return nil, err
	}
	if !w.sweep {
		if err := base.singleHits(ctx); err != nil {
			return nil, err
		}
	}

	traced := newBench(w, o.seed, tmp, rep.chk)
	traced.refs, traced.passes = base.refs, base.passes
	heap0, err := heapProfile()
	if err != nil {
		return nil, err
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, err
	}
	err = traced.loop(ctx, budget)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	heap1, err := heapProfile()
	if err != nil {
		return nil, err
	}
	rep.extra = append(rep.extra, saveProfiles(o.out, w.name, cpuBuf.Bytes(), heap1)...)

	recs := traced.refs
	if !w.sweep {
		recs = append(base.records, traced.records...)
	}
	simulatedCounts(rep, recs)
	if err := spans(rep, w, recs, traced, tmp); err != nil {
		return nil, err
	}
	rep.add("trace.wall_ratio", "ratio", medianWall(traced)/medianWall(base), len(traced.units))
	// Store-hit latency from the untraced half. It is a per-layer metric
	// because its spread between runs on a shared host (a quarter of its
	// median) is too wide for an end-to-end bound.
	rep.add("hit_us_p50", "us", quantile(base.hitsUS, 0.5), len(base.hitsUS))
	rep.add("hit_us_p90", "us", quantile(base.hitsUS, 0.9), len(base.hitsUS))
	if err := profileShares(rep, cpuBuf.Bytes(), heap0, heap1); err != nil {
		return nil, err
	}
	for _, l := range layerMap {
		rep.extra = append(rep.extra, fmt.Sprintf("layer-map: %s -> %s", l.layers, l.moves))
	}
	return rep, nil
}

func medianWall(b *bench) float64 {
	var xs []float64
	for _, u := range b.units {
		xs = append(xs, u.wall.Seconds())
	}
	return median(xs)
}

// heapProfile returns the allocation profile as of a fresh collection
// (the runtime publishes allocations at the end of a GC cycle).
func heapProfile() ([]byte, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// saveProfiles keeps the traced run's profiles for go tool pprof and
// returns the lines that say where they are. Failing to save them loses
// nothing the result needs.
func saveProfiles(dir, name string, cpu, heap []byte) []string {
	var lines []string
	for kind, data := range map[string][]byte{"cpu": cpu, "heap": heap} {
		path := filepath.Join(dir, fmt.Sprintf("%s.%s.pb.gz", name, kind))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			lines = append(lines, fmt.Sprintf("%s profile not saved: %v", kind, err))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s profile: %s", kind, path))
	}
	sort.Strings(lines)
	return lines
}

// simulatedCounts adds the per-layer counts of the simulated system. They
// come from the results alone, so they are identical on every run of the
// same configs; rates are per kilo-instruction of the measured phases.
func simulatedCounts(rep *report, recs []record) {
	var instrs, total, fired, l3 uint64
	var cycles float64
	var ptw, wb, trHit, trMiss, stuHit, stuMiss, acmHit, acmMiss, walks, steps, pkts, rd, wr, at, data uint64
	var stallPS float64
	for _, r := range recs {
		res := r.res
		instrs += res.Instructions
		total += instructions(r.cfg)
		fired += r.fired
		cycles += float64(res.Duration) / float64(r.cfg.CycleTime)
		l3 += uint64(math.Round(res.MPKI * float64(res.Instructions) / 1000))
		for _, ns := range res.NodeStats {
			ptw += ns.NodePTWalks
			wb += ns.Writebacks
		}
		for _, s := range res.STUStats {
			stuHit += s.TranslationHits
			stuMiss += s.TranslationMisses
			acmHit += s.ACMHits
			acmMiss += s.ACMMisses
			walks += s.Walks
			steps += s.PTWSteps
		}
		for _, t := range res.TranslatorStats {
			trHit += t.Hits
			trMiss += t.Misses
			stallPS += float64(t.SlotStallsPS)
		}
		pkts += res.FabricPackets
		rd += res.FAMReads
		wr += res.FAMWrites
		at += res.FAMAT
		data += res.FAMData
	}
	n := len(recs)
	pki := func(c uint64) float64 { return ratio(c, instrs) * 1000 }
	rep.add("sim.events_pki", "events/kinstr", ratio(fired, total)*1000, n)
	rep.add("sim.ipc", "instr/cycle", float64(instrs)/cycles, n)
	rep.add("tlb.walks_pki", "count/kinstr", pki(ptw), n)
	rep.add("cache.l3_mpki", "count/kinstr", pki(l3), n)
	rep.add("cache.writebacks_pki", "count/kinstr", pki(wb), n)
	rep.add("translator.hit_rate", "ratio", ratio(trHit, trHit+trMiss), n)
	rep.add("translator.slot_stall_ns", "ns", stallPS/1e3/float64(n), n)
	rep.add("stu.xlate_hit_rate", "ratio", ratio(stuHit, stuHit+stuMiss), n)
	rep.add("stu.acm_hit_rate", "ratio", ratio(acmHit, acmHit+acmMiss), n)
	rep.add("stu.walks_pki", "count/kinstr", pki(walks), n)
	rep.add("stu.ptw_steps_pki", "count/kinstr", pki(steps), n)
	rep.add("fabric.packets_pki", "count/kinstr", pki(pkts), n)
	rep.add("memdev.fam_reads_pki", "count/kinstr", pki(rd), n)
	rep.add("memdev.fam_writes_pki", "count/kinstr", pki(wr), n)
	rep.add("node.at_fraction", "ratio", ratio(at, at+data), n)
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// storeSpanSamples is the fewest Put and Lookup calls timed.
const storeSpanSamples = 100

// spans adds the host spans timed around the public calls: construction
// and run (from the records), store Put and Lookup (timed here, against a
// store of the workload's own results), and construction's share of a
// unit's wall time.
func spans(rep *report, w *workload, recs []record, b *bench, tmp string) error {
	var build, run []float64
	for _, r := range recs {
		build = append(build, float64(r.build.Nanoseconds())/1e6)
		run = append(run, float64(r.run.Nanoseconds())/1e6)
	}
	rep.add("core.new_system_ms", "ms", median(build), len(build))
	rep.add("core.run_ms", "ms", median(run), len(run))

	st, err := resultstore.Open(filepath.Join(tmp, "spans"), 0)
	if err != nil {
		return err
	}
	distinct := recs
	if !w.sweep {
		distinct = recs[:1]
	}
	var put, lookup []float64
	for round := 0; len(put) < storeSpanSamples && round < storeSpanSamples; round++ {
		for _, r := range distinct {
			t0 := time.Now()
			if err := st.Put(r.cfg, r.res); err != nil {
				return err
			}
			t1 := time.Now()
			e, ok := st.Lookup(r.cfg.Fingerprint())
			t2 := time.Now()
			if !ok {
				rep.chk.outcome(fmt.Errorf("%s: stored result not found", label(r.cfg)))
				continue
			}
			rep.chk.observe(r.cfg, e.Result, nil)
			put = append(put, float64(t1.Sub(t0).Nanoseconds())/1e3)
			lookup = append(lookup, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	}
	rep.add("resultstore.lookup_us", "us", median(lookup), len(lookup))
	rep.add("resultstore.put_us", "us", median(put), len(put))

	// Construction time per unit of timed work, over that unit's wall time:
	// a sweep pass constructs one system per config.
	perUnit := float64(len(b.cfgs)) * median(build) / 1e3
	rep.add("core.new_system_share", "ratio", perUnit/medianWall(b), len(b.units))
	return nil
}

// profileShares aggregates the traced run's CPU profile by layer (self
// time) and by entry function (cumulative time), and the difference of
// the two heap profiles by allocating layer.
func profileShares(rep *report, cpu, heap0, heap1 []byte) error {
	cp, err := parseProfile(cpu)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	idx, err := cp.valueIndex("cpu")
	if err != nil {
		return err
	}
	n := len(cp.samples)
	self, total := selfByLayer(cp, idx)
	for _, l := range selfLayers {
		rep.add(l+".self_share", "share", share(self[l], total), n)
	}
	cum, total := cumByEntry(cp, idx, entries)
	for _, e := range entries {
		rep.add(e.name+".cum_share", "share", share(cum[e.name], total), n)
	}
	rep.extra = append(rep.extra, "top self layers: "+topLayers(self, total, 8))

	h0, err := parseProfile(heap0)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	h1, err := parseProfile(heap1)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	hidx, err := h1.valueIndex("alloc_space")
	if err != nil {
		return err
	}
	a0, t0 := allocByLayer(h0, hidx)
	a1, t1 := allocByLayer(h1, hidx)
	for l := range a1 {
		a1[l] -= a0[l]
	}
	for _, l := range allocLayers {
		rep.add(l+".alloc_share", "share", share(a1[l], t1-t0), len(h1.samples))
	}
	rep.extra = append(rep.extra, "top alloc layers: "+topLayers(a1, t1-t0, 8))
	return nil
}

func share(n, d int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// topLayers formats the k largest layers of by as "layer=share" pairs.
func topLayers(by map[string]int64, total int64, k int) string {
	names := make([]string, 0, len(by))
	for l := range by {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]] != by[names[j]] {
			return by[names[i]] > by[names[j]]
		}
		return names[i] < names[j]
	})
	var out bytes.Buffer
	for i, l := range names {
		if i == k {
			break
		}
		fmt.Fprintf(&out, "%s=%.3f ", l, share(by[l], total))
	}
	return out.String()
}
