package experiments

import (
	"context"

	"deact/internal/core"
)

// RunAll submits every configuration and waits for the results in
// submission order. Duplicate configurations — within the batch or against
// previously executed runs — share one simulation (identity is
// Config.Fingerprint()). The error reported is the first failing request
// in submission order, so error behaviour is deterministic regardless of
// execution interleaving. On cancellation every future is still waited
// (and thereby detached), so the worker pool winds down instead of running
// the rest of the batch in the background.
func (r *Runner) RunAll(ctx context.Context, cfgs []core.Config) ([]core.Result, error) {
	futs := make([]*Future, len(cfgs))
	for i, cfg := range cfgs {
		futs[i] = r.Submit(ctx, cfg)
	}
	results := make([]core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, f := range futs {
		results[i], errs[i] = f.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// prefetchDefaults warms the run cache with the full scheme×benchmark grid
// of default-parameter simulations. Report calls it first so Table III and
// Figures 3, 4, 9–12 — which all draw on these runs — assemble from cache
// hits instead of each paying for its own subset serially.
func (r *Runner) prefetchDefaults(ctx context.Context) error {
	var cfgs []core.Config
	for _, s := range core.Schemes() {
		for _, b := range r.opts.benchmarks() {
			cfgs = append(cfgs, r.config(s, b, nil))
		}
	}
	_, err := r.RunAll(ctx, cfgs)
	return err
}
