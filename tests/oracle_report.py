"""Worst error of every filter record against the exact recursion, per pass.

    PYTHONPATH=src python tests/oracle_report.py

Runs the models of ``test_every_record_is_close_to_the_exact_recursion`` in
``tests/test_dlm.py``: 24 random models over its ``EXACT_SHAPES``, and the two
r = 2 models whose Q a pivoting LU would swap. Each runs through ``dlm._run``
in both modes, and ``exact_errors`` compares every record with
``oracles.exact_filter``, in exact rational arithmetic. That is done twice:
at the test's P0 (log-uniform in [0.1, 1e3], and of order 1 for the two
pivot models) and at P0 of order 1e6. For each, one table gives the worst
normwise relative error of each record over the models of each covariance
loop, as ``dlm._run`` routes them by d alone: the Python-float loop at
d <= 2, the numpy loop at d >= 3.

Beside the tables it prints the worst error / (eps kappa) over 300 models
drawn as ``SCALED_BOUND`` was set (``exact_case`` at seeds [90, i], d and r
uniform in 1..3, the test's P0), kappa the model's ``conditioning``: the bar
of ``test_every_drawn_record_is_within_its_conditioning``.

The script reads only ``dlm._run`` and the public model and state classes,
so it runs on a change's base commit too. pytest does not collect it.
"""

import numpy as np

from test_dlm import (EXACT_RECORDS, EXACT_SHAPES, SCALED_BOUND, conditioning, exact_case,
                      exact_errors, exact_runs)

PASSES = ("python", "numpy")
DRAWN = 300


def cases(P0_scale):
    """The test's models, with P0 of order ``P0_scale`` (the test's own P0 when None)."""
    for seed in range(24):
        d, r = EXACT_SHAPES[seed % len(EXACT_SHAPES)]
        yield exact_case(np.random.default_rng([86, seed]), d, r, P0_scale)
    for d in (1, 2):
        yield exact_case(np.random.default_rng([86, 24 + d]), d, 2, P0_scale or 1.0, pivot=True)


def report(title: str, P0_scale) -> None:
    worst = {path: dict.fromkeys(EXACT_RECORDS, 0.0) for path in PASSES}
    for inputs, model, prior, y in cases(P0_scale):
        path = "python" if model.d <= 2 else "numpy"
        for name, error in exact_errors(inputs, model, prior, y).items():
            worst[path][name] = max(worst[path][name], error)
    print(title)
    print(f"{'record':<8}" + "".join(f"{path:>10}" for path in PASSES))
    for name in EXACT_RECORDS + ("all",):
        row = [max(worst[path].values()) if name == "all" else worst[path][name]
               for path in PASSES]
        print(f"{name:<8}" + "".join(f"{error:>10.2e}" for error in row))


def scaled() -> None:
    worst, where = 0.0, ""
    for i in range(DRAWN):
        rng = np.random.default_rng([90, i])
        d, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inputs, model, prior, y = exact_case(rng, d, r)
        exact = exact_runs(inputs)
        errors = exact_errors(inputs, model, prior, y, exact)
        value = max(errors.values()) / (np.finfo(float).eps * conditioning(inputs, exact))
        if value > worst:
            worst, where = value, f"seed [90, {i}], d={d}, r={r}, in {max(errors, key=errors.get)}"
    print(f"worst error / (eps kappa) over {DRAWN} drawn models at the test's P0: "
          f"{worst:.2f} ({where}); the bound is {SCALED_BOUND}")


def main() -> None:
    report("P0 of the test", None)
    print()
    report("P0 of order 1e6", 1e6)
    print()
    scaled()


if __name__ == "__main__":
    main()
