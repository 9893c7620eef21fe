// Package deact is a from-scratch Go reproduction of "DeACT:
// Architecture-Aware Virtual Memory Support for Fabric Attached Memory
// Systems" (Kommareddy, Hughes, Awad, Hammond — HPCA 2021).
//
// The library lives under internal/: a discrete-event architectural
// simulator (sim, memdev, cache, tlb, pagetable, cpu, fabric), the FAM
// system substrates the paper depends on (broker, acm, stu, translator,
// node), the assembled system and its four virtual-memory schemes (core),
// the synthetic Table III workload suite (workload), and the Runner that
// regenerates every table and figure of the paper's evaluation
// (experiments).
//
// Run orchestration is context-aware and identity-safe.
// core.Run(ctx, cfg, opts...) simulates one fully-built core.Config and
// observes cancellation cooperatively: the event loop runs in coarse
// simulated-time strides with a ctx check between them, so a SIGINT aborts
// a multi-minute report run in sub-second wall time without perturbing
// event order (results are byte-identical to an uncancelled drain). The
// construction/run surface is options-form: core.WithPool recycles
// construction memory, core.WithTrace and core.WithTraceRecorder replay
// and record access traces. Run identity is core.Config.Fingerprint(): a
// canonical hash over every exported field (reflection-walked, so new
// fields cannot be silently omitted) after normalizing derived fields and
// zeroing the fields the scheme never reads (E-FAM's STU size, say).
// experiments.Runner validates each config, then deduplicates on that fingerprint alone — callers Submit(ctx, cfg) and get a Future, or batch
// with RunAll(ctx, cfgs); configs that simulate identically share one simulation and
// distinct configs can never alias one cache slot the way hand-written
// string keys could. A deduplicated waiter that cancels unblocks with its
// own ctx.Err() while the shared computation keeps running for the
// remaining waiters; the last waiter detaching cancels it, and the worker
// pool stops admitting cancelled work. Options.OnRunDone streams
// completed/total progress (the cmds render it on stderr), and
// Config.Validate reports wrapped core.ErrInvalidConfig sentinel errors.
//
// The Runner schedules its hundreds of independent simulations on a
// worker pool (experiments.Options.Parallelism; the cmds expose it as
// -parallelism, default GOMAXPROCS), so full-report regeneration scales
// with core count while staying byte-identical to serial execution at the
// same seed.
//
// The per-reference hot path is allocation-free in steady state: the sim
// engine stores events by value in an indexed 4-ary heap and offers a
// closure-free scheduling API (sim.Handler / Engine.ScheduleHandler) that
// self-rescheduling components like cpu.Core implement directly; resource
// calendars, page tables, ACM metadata and translation caches are all
// array-backed. Cache replacement is exact LRU held in per-set rank words
// (one uint64 of 4-bit way indices at assoc ≤ 16, property-tested
// bit-identical to the per-way stamp fallback), so hit promotion and
// victim selection are constant-width bit operations. One core.Run
// simulates roughly 8× faster than the pointer-heap/map-backed engine it
// replaced, with ~98% fewer allocations (see CHANGES.md for the measured
// trajectory; BenchmarkEngine, BenchmarkCoreRun and BenchmarkCacheAccess
// are the guards).
//
// Construction memory is recycled: core.SystemPool (backed by
// internal/arena) hands the large zeroed arrays a System is built from —
// the ACM page table, the broker's free-pool map, translator
// lines, cache line arrays, TLB and STU arrays, page-table arenas, OS
// backing tables — along with its contention calendars, random sources
// and per-structure headers from run to run, clearing instead of
// reallocating. The
// experiments Runner keeps one pool per worker slot, so a full report's
// hundreds of runs amortize construction down to the structures a config
// actually resizes; recycled runs are bit-identical to fresh ones
// (TestPooledRunMatchesUnpooled and the golden-report job hold this). The
// package-level Example in example_test.go is the compile-checked Runner
// tour.
//
// Contention is modeled by one batched calendar type (package sim): each
// memory-device bank, controller port, fabric link direction and STU port
// is a sim.Server whose in-order arrivals pay a tail compare and whose
// out-of-order arrivals book into a small gap calendar. A Server retires
// gaps that closed in the simulated past against the engine clock
// (sim.Clock, wired by core.NewSystem), and its 512-gap live bound only
// ever drops such closed gaps; grants are bit-identical to an unpruned
// interval calendar (the sim package cross-checks them property-style).
// Before a calendar's backing array grows, it retires the closed gaps and
// compacts them away, so memory tracks the gaps still reachable from the
// engine clock, not the live bound or the run length.
// BenchmarkMemdevAccess and BenchmarkFabricTraverse guard the
// device-level cost (~tens of ns and 0 allocs per access); the cache
// hierarchy probes each set's MRU way, read from its LRU rank word, so
// repeat hits skip the way scan.
//
// Entry points:
//
//   - cmd/deact-sim     — run one benchmark under one scheme (SIGINT
//     cancels cooperatively)
//   - cmd/deact-sweep   — run one sensitivity sweep (§V-D, -parallelism N,
//     -store, -cpuprofile/-memprofile, live progress on stderr)
//   - cmd/deact-report  — regenerate EXPERIMENTS.md (all tables/figures,
//     -parallelism N, -store, -cpuprofile/-memprofile, live progress; a
//     cancelled run exits nonzero and writes no partial output)
//   - cmd/benchgate     — CI benchmark-regression gate (median time/op and
//     allocs/op budgets over `go test -bench` output)
//   - cmd/doccheck      — docs CI check (extracts fenced Go snippets from
//     the markdown docs and vets them; verifies relative links)
//   - examples/         — five runnable walkthroughs; quickstart tours the
//     Runner API (Submit, futures, OnRunDone progress)
//   - bench_test.go     — one testing.B benchmark per table and figure
//     (-short selects the CI smoke scale)
//
// CI (.github/workflows/ci.yml) runs go build, go vet, staticcheck (SA
// checks, pinned), a gofmt check, go test -race, an examples smoke run
// (quickstart at tiny scale, so API drift in the walkthroughs fails PRs),
// a docs job (cmd/doccheck over README.md/ARCHITECTURE.md/ROADMAP.md/
// CHANGES.md), a one-iteration -short -benchmem benchmark smoke (uploaded
// as a build artifact), a benchmark-regression gate that reruns
// BenchmarkEngine, BenchmarkCoreRun, BenchmarkCoreRunOoO and
// BenchmarkSkewTableBuild on the PR base and fails on >20%
// median time/op or any allocs/op growth (cmd/benchgate; benchstat
// renders the human-readable delta), and a golden-report determinism job
// that diffs a short-scale cmd/deact-report run against
// testdata/golden-report-short.md three times: cold, with a cold -store
// and with the same -store warm, so result caching is held byte-identical
// on every push.
//
// README.md is the quickstart (the three cmds, the local smoke tier, the
// golden-file regeneration recipe); ARCHITECTURE.md maps the paper's
// pipeline onto the packages and walks the config → fingerprint → Runner
// → System → engine → stats → report dataflow.
package deact
