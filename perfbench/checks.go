package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"deact/internal/core"
)

// maxNotes bounds how many failure descriptions a run keeps for printing.
const maxNotes = 8

// checker counts checked outcomes and the ones that failed. Every
// simulated or stored result is one outcome; so is every pairwise
// comparison the sweep makes. A failure is an outcome the program got
// wrong: an error, a broken conservation law, a result that differs from
// an earlier result of the same config, or a broken scheme ordering.
type checker struct {
	want      map[string][]byte // fingerprint → canonical JSON of the first result seen
	attempted int
	failed    int
	notes     []string
}

func newChecker() *checker { return &checker{want: map[string][]byte{}} }

// observe checks one result of cfg (or the error that replaced it).
func (c *checker) observe(cfg core.Config, res core.Result, err error) {
	if err == nil {
		err = c.verify(cfg, res)
	}
	c.outcome(err)
}

// outcome records one checked outcome; a non-nil err is a failure.
func (c *checker) outcome(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, err.Error())
	}
}

// verify applies the conservation laws, then compares res with the first
// result recorded for the same config: a deterministic simulator must
// reproduce it exactly, whether it ran again, ran on a recycled pool, or
// came back from the result store.
func (c *checker) verify(cfg core.Config, res core.Result) error {
	if err := conservation(res); err != nil {
		return fmt.Errorf("%s: %w", label(cfg), err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("%s: encode result: %w", label(cfg), err)
	}
	fp := cfg.Fingerprint()
	prev, ok := c.want[fp]
	if !ok {
		c.want[fp] = b
		return nil
	}
	if !bytes.Equal(prev, b) {
		return fmt.Errorf("%s: result differs from the first result of the same config", label(cfg))
	}
	return nil
}

// conservation checks the laws every result satisfies with the prefetcher
// off: each request observed at FAM is one device access (translation
// metadata or data), and each device access is one fabric packet each way.
func conservation(r core.Result) error {
	fam := r.FAMReads + r.FAMWrites
	if fam != r.FAMAT+r.FAMData {
		return fmt.Errorf("FAM reads+writes %d != FAMAT+FAMData %d", fam, r.FAMAT+r.FAMData)
	}
	if r.FabricPackets != 2*fam {
		return fmt.Errorf("fabric packets %d != 2 x FAM accesses %d", r.FabricPackets, fam)
	}
	if r.Instructions == 0 || r.IPC <= 0 {
		return fmt.Errorf("no instructions retired in the measured phase")
	}
	return nil
}

// atSensitive are the sweep benchmarks on which the paper's claim must
// hold: DeACT-N's simulated IPC exceeds I-FAM's.
var atSensitive = map[string]bool{"mcf": true, "canl": true, "dc": true}

// orderingMaxSTU is the largest STU size at which DeACT-N must beat
// I-FAM. At 4096 entries the STU holds the whole footprint of the sweep's
// short runs and I-FAM pulls level (Figure 13: the gain shrinks as the
// STU grows); at 2048 and below DeACT-N leads by 4% or more on every seed
// tried.
const orderingMaxSTU = 2048

// checkOrdering compares DeACT-N with I-FAM on every AT-sensitive
// benchmark of a sweep: one outcome per STU size up to orderingMaxSTU
// (DeACT-N's IPC is higher), and one per benchmark for Figure 13's shape
// (the speedup at the smallest STU exceeds the speedup at the largest).
func (c *checker) checkOrdering(cfgs []core.Config, res []core.Result) {
	type key struct {
		bench   string
		scheme  core.Scheme
		entries int
	}
	ipc := map[key]float64{}
	for i, cfg := range cfgs {
		ipc[key{cfg.Benchmark, cfg.Scheme, cfg.STUEntries}] = res[i].IPC
	}
	speedup := func(bench string, entries int) float64 {
		base := ipc[key{bench, core.IFAM, entries}]
		if base == 0 {
			return 0
		}
		return ipc[key{bench, core.DeACTN, entries}] / base
	}
	for _, b := range sweepBenchmarks {
		if !atSensitive[b] {
			continue
		}
		for _, e := range sweepSTUEntries {
			if e > orderingMaxSTU {
				continue
			}
			if s := speedup(b, e); s <= 1 {
				c.outcome(fmt.Errorf("%s stu=%d: DeACT-N speedup over I-FAM %.4f, want > 1", b, e, s))
			} else {
				c.outcome(nil)
			}
		}
		lo, hi := sweepSTUEntries[0], sweepSTUEntries[len(sweepSTUEntries)-1]
		if speedup(b, lo) <= speedup(b, hi) {
			c.outcome(fmt.Errorf("%s: DeACT-N speedup %.4f at stu=%d does not exceed %.4f at stu=%d",
				b, speedup(b, lo), lo, speedup(b, hi), hi))
		} else {
			c.outcome(nil)
		}
	}
}

// label names a config in failure notes.
func label(cfg core.Config) string {
	return fmt.Sprintf("%s/%s nodes=%d stu=%d seed=%d", cfg.Benchmark, cfg.Scheme.Name(), cfg.Nodes, cfg.STUEntries, cfg.Seed)
}
