"""Filtering one bivariate series with entrywise missing data.

Simulates a correlated local-level series, punches the default gap pattern
into it, and runs the filter twice: once with masked updates that use
whatever entries are present, and once classically, discarding any time
point that is not fully observed. Prints what each mode learned.

Run:  python3 demos/filter_missing_data.py
"""
import numpy as np

import mvdlm as mv


def main():
    cfg = mv.LocalLevelConfig(T=100, corr=0.8, seed=3)
    levels, data = mv.gen_local_level(cfg)
    pattern = mv.DEFAULT_MISSING_PATTERN
    observations = mv.apply_missing(data, pattern)

    model = mv.local_level_model(p=2)
    prior = mv.default_prior(p=2)

    out_new = mv.filter(model, observations, prior, mode="new")
    out_cls = mv.filter(model, observations, prior, mode="classical")

    print("gap pattern (1-based):")
    for t in sorted(pattern.missing):
        print(f"  t={t:3d}  missing variables {sorted(pattern.missing[t])}")

    print("\nstate estimates around the partial gap at t=75 (variable 1 missing):")
    print(f"{'t':>4} {'y1':>8} {'y2':>8} {'masked m1':>10} {'classic m1':>11} {'true level1':>12}")
    for t in range(73, 79):
        y1, y2 = observations[t - 1, 0]
        print(f"{t:4d} {y1:8.3f} {y2:8.3f} "
              f"{out_new.states[t - 1].m[0, 0]:10.3f} "
              f"{out_cls.states[t - 1].m[0, 0]:11.3f} "
              f"{levels[t - 1, 0]:12.3f}")
    print("(at t=75 both filters carry variable 1's one-step prediction, but the")
    print(" masked filter still updates variable 2 and the shared state scale,")
    print(" so the two modes diverge from t=76 on; the classical filter skipped")
    print(" the whole time point)")

    print("\ndegrees of freedom accumulated by t=100:")
    print(f"  masked update : {out_new.states[-1].miw.n}")
    print(f"  classical     : {out_cls.states[-1].miw.n}")

    print("\nmean standardized squared forecast error (1 is perfectly calibrated):")
    print(f"  masked update : {np.round(mv.msse(out_new), 4)}")
    print(f"  classical     : {np.round(mv.msse(out_cls), 4)}")

    print("\nestimated observation-noise correlation at the partial gaps (true 0.8):")
    # a partial gap: some but not all entries of the step observed
    observed = out_new.observed
    for t in np.flatnonzero(observed.any(axis=(1, 2)) & ~observed.all(axis=(1, 2))) + 1:
        c = mv.correlation_estimate(out_new.states[t - 1], 0, 1)
        print(f"  t={t:3d}  corr = {c:.3f}")


if __name__ == "__main__":
    main()
